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
exact path. A component has the one mean 0, so its closed form is taken
on Python floats (`_conditional`), with two scalar erfc and two scalar
exp calls: scipy's and numpy's, the routines of `gauss.norm_cdf_pdf`, in
its operations, so the values have the bits of the plain array formulas
(math's erfc and exp round differently). A numpy pass on one mean spent
about 14 us, nearly all of it numpy's per-call overhead; the float form
takes about 2 us. Heavy-tailed laws are integrated over W with
Gauss-Legendre nodes on the inverse cdf, split at the median so the
Laplace kink sits on a panel edge. `_window_edges` stacks both edges, at
every node, in one (2, nodes) array and evaluates them in one pass
(`gauss.norm_cdf_pdf`: one erfc and one exp call), with the operations of
the plain one-edge formulas and so with their bits. Only the second
moment inside the window, whose terms cancel, is formed per node; it and
the edge terms are the rows of one array, and one product with the
weights gives every sum (`_node_sums`), within a few ulps of averaging
each node's moments.

Every loss enters through its constants (kappa, e_lo, e_hi) from
`losses.score_shape`: Phi(v; b) = c clip(v, lo, hi) with c = b/(kappa + b)
and the score window (lo, hi] = (kappa + b)(e_lo, e_hi]. So the slope
E d1Phi is c times the mass of the window and E Phi^2 is c^2 E clip(v,
lo, hi)^2; c and its derivative kappa/(kappa + b)^2 multiply the noise
averages. The derivative of the slope in b takes, besides dc/db, the
density of W + sigma Z at each window edge times the rate e_lo or e_hi at
which that edge moves, from the same normal pieces; the derivative of
E clip^2 takes each edge times its rate times the mass beyond it. The
second derivatives take the slope of the normal density at each edge
and, for E clip^2, the edge density against the mass beyond; the pass
already forms every edge term they read. `score_moments` is the one
window kernel: one pass over the edges gives the slope, E Phi^2 and
their first and second derivatives in b. Least squares, whose window is
the whole line, reads the noise variance for every law. The tau update
finds b by safeguarded steps on log b (`calibration.solve_increasing` on
`score_moments`), with E Phi^2 riding along. For sigma > 0 the steps
are Halley's, third order, wherever Halley's correction to Newton's
step is small, and Newton's elsewhere; once the next Halley step moves
b by a relative cbrt(1e-13)/2 or less (about 1.0e-5 on log10 b), it
takes that step without a window pass and carries E Phi^2 there to
second order, with an error of the order of the step's cube (the tau
equation then holds within 1e-13 relative of a fresh pass on the
tested cases); otherwise it reads E Phi^2 at the point it evaluated
last. The rows' (sigma_sq, b) converge geometrically, so a fixed-point
run starts each solve from b extrapolated to the new sigma_sq through
its last three rows (`_predicted_b`): on the twelve cells of the
benchmark's se_tune workload an update takes 1.32 window passes (679
over 515 updates with seed 1), against 1.62 (833) with Newton's steps
and an unevaluated last step only below 6.9e-8 on log10 b, and 2.23
(1146) when Newton evaluated its last step. The stopping rule does not
depend on the start, so each b is the same root to solver precision.
At sigma = 0 the slope is a step map: Newton evaluates every step, so a
jump inside its last step is not missed, and its bisection fallback
finds the jump. The sigma update takes one scalar soft-threshold risk
call per prior atom, in Python floats: on the three atoms of the +-1
prior a vectorized call spent its time in numpy's per-call overhead.
The zero-estimate start of a fixed point does not depend on alpha, so
`tune_alpha` computes it once per grid.

A fixed point is recorded as its rows (t, sigma_sq, tau_sq, b, theta),
one per iteration: the starred values of `SeResult` are the last row.
`se_fixed_point` and `tune_alpha` share one checked run.

Every expectation here is a deterministic integral, so the recursion has
one path and a fixed point is a deterministic function of its inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .calibration import solve_increasing
from .gauss import (
    _INV_SQRT_2PI,
    _SQRT2,
    gamma_cap,
    norm_cdf_pdf,
    soft_threshold_risk,
    truncated_moments,
)
from .losses import score_shape
from .solver import check_budget, lambda_of_theta

# ---------------------------------------------------------------------------
# signal prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignalPrior:
    """Sparse atomic prior: mass 1 - omega at zero, the rest on given atoms.

    atoms lists (prob, value) pairs for the conditional nonzero part; probs
    must sum to one and values must be nonzero. full_atoms, built once
    here, lists all atoms including the point mass at zero.
    """

    omega: float
    atoms: tuple
    full_atoms: tuple = field(init=False, repr=False, compare=False)

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
        zero = ((1.0 - self.omega, 0.0),) if self.omega < 1.0 else ()
        object.__setattr__(self, "full_atoms",
                           zero + tuple((self.omega * p, a) for p, a in atoms))

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
# from which SE builds its quadrature nodes. Every parameter must be
# positive and finite: t with df = inf is the normal law, but built as a
# StudentT it would reach SE with an infinite variance.


def _positive_finite(**params):
    for name, value in params.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Normal:
    sigma_sq: float = 1.0

    def __post_init__(self):
        _positive_finite(sigma_sq=self.sigma_sq)

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
        for w, v in comps:
            _positive_finite(weight=w, variance=v)
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
        _positive_finite(df=self.df, scale=self.scale)

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
        _positive_finite(scale=self.scale)

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
        _positive_finite(scale=self.scale)

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


def _window_edges(lo, hi, mu, s, out):
    """Edge terms of the window (lo, hi] for v ~ N(mu, s^2), s > 0.

    Returns (e, Phi(e), phi(e)), each a (2, ...) array whose rows belong to
    the standardized lower edge a = (lo - mu)/s and upper edge
    c = (hi - mu)/s; both slope and E clip(v, lo, hi)^2 are built from
    them. Both edges go through one `norm_cdf_pdf` pass, written into the
    three arrays of out. The edges of a Huber or kinked window are finite,
    so no infinite-edge guard is needed. Vectorized over mu.
    """
    e = np.subtract.outer((lo, hi), mu, out=out[0])
    e /= s
    return (e,) + norm_cdf_pdf(e, out[1:])


def _window_m2(e, p_in, pdf, mu_sq, mu_2, s, out):
    """E v^2 1{lo < v <= hi} for v ~ N(mu, s^2), from the edge terms.

    The truncated-normal closed form

        (mu^2 + s^2) P + 2 mu s (phi(a) - phi(c)) + s^2 (a phi(a) - c phi(c))

    with mu^2 and 2 mu given, in the operations of
    `gauss.truncated_moments` and so with its bits. Its terms cancel when
    the window is narrow against s, so it is formed at each mean before any
    average. Written into out; overwrites e with (a phi(a), c phi(c)).
    """
    m2 = np.add(mu_sq, s * s, out=out)
    m2 *= p_in
    t = mu_2 * s
    t *= pdf[0] - pdf[1]
    m2 += t
    e *= pdf
    t = e[0] - e[1]
    t *= s * s
    m2 += t


def _conditional(lo, hi, rate_lo, rate_hi, mu, s):
    """P, E clip^2 and their first and second derivatives in b, v ~ N(mu, s^2).

    Returns (P, dP/db, E clip^2, d E clip^2/db, d2P/db2, d2 E clip^2/db2)
    for the window (lo, hi]. P is the mass of v in the score window, on
    which Phi(v; b) = c clip(v, lo, hi), so P and E clip(v, lo, hi)^2 are
    E d1Phi/c and E Phi^2/c^2. The edges move with b at rates rate_lo and
    rate_hi, so dP/db is the density of v at each edge times that edge's
    rate, and d E clip^2/db = 2 (hi rate_hi P_above + lo rate_lo P_below),
    the clip being an edge outside the window. Differentiating once more,
    with the standardized edges a and c,

        d2P/db2 = (rate_lo^2 a phi(a) - rate_hi^2 c phi(c))/s^2,
        d2 E clip^2/db2 = 2 (rate_hi^2 (P_above - hi phi(c)/s)
                             + rate_lo^2 (P_below + lo phi(a)/s)).

    For s > 0, mu is one float and the six values are Python floats, taken
    once per normal component by `_noise_average`: the mass below the
    window is Phi(a), and the second moment inside it is the closed form
    of `_window_m2`. Phi and phi take scipy's erfc and numpy's exp on the
    two edges, in the operations of `gauss.norm_cdf_pdf`, so the values
    have the bits of the plain array formulas. At s = 0, v is a point mass
    at mu, inside when lo < mu <= hi, with no density at the edges;
    vectorized over mu.
    """
    if s == 0.0:
        p_in = ((mu > lo) & (mu <= hi)).astype(float)
        p_below = (mu <= lo).astype(float)
        p_above = 1.0 - p_in - p_below  # exactly one of the three is 1
        zero = np.zeros_like(p_in)
        return (p_in, zero, mu * mu * p_in + hi * hi * p_above + lo * lo * p_below,
                2.0 * (hi * rate_hi * p_above + lo * rate_lo * p_below), zero,
                2.0 * (rate_hi * rate_hi * p_above + rate_lo * rate_lo * p_below))
    a, c = (lo - mu) / s, (hi - mu) / s
    p_below = float(special.erfc(a / -_SQRT2)) * 0.5
    p_in = float(special.erfc(c / -_SQRT2)) * 0.5 - p_below
    pdf_a = float(np.exp((a * -0.5) * a)) * _INV_SQRT_2PI
    pdf_c = float(np.exp((c * -0.5) * c)) * _INV_SQRT_2PI
    xf_a, xf_c = a * pdf_a, c * pdf_c
    m2_in = ((mu * mu + s * s) * p_in + mu * 2.0 * s * (pdf_a - pdf_c)
             + (xf_a - xf_c) * (s * s))
    p_above = max(1.0 - p_in - p_below, 0.0)
    return (p_in, pdf_c * (rate_hi / s) - (rate_lo / s) * pdf_a,
            m2_in + hi * hi * p_above + lo * lo * p_below,
            2.0 * (hi * rate_hi * p_above + lo * rate_lo * p_below),
            xf_a * (rate_lo * rate_lo / (s * s)) - (rate_hi * rate_hi / (s * s)) * xf_c,
            2.0 * (rate_hi * rate_hi * (p_above - hi * (pdf_c / s))
                   + rate_lo * rate_lo * (p_below + lo * (pdf_a / s))))


@lru_cache(maxsize=32)
def _noise_nodes(noise):
    """Inverse-cdf Gauss-Legendre nodes for E over the noise law.

    Returns (w, weights, w^2, 2w), the last two for `_window_m2`. Every
    caller shares these arrays, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(_NODES_PER_HALF)
    u = 0.25 * (x + 1.0)
    uu = np.concatenate([u, 0.5 + u])
    ww = np.concatenate([0.25 * w, 0.25 * w])
    nodes = np.asarray(noise.ppf(uu), dtype=float)
    arrays = (nodes, ww, nodes * nodes, nodes * 2.0)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _node_sums(lo, hi, rate_lo, rate_hi, noise, s):
    """`_conditional` averaged over the noise law's nodes w, for s > 0.

    Only the in-window second moment m2_in is formed per node
    (`_window_m2`), because its terms cancel. It and P, Phi(a), 1 - Phi(c),
    phi(a), phi(c), a phi(a), c phi(c) are the rows of one (8, nodes)
    array, and one product with the weights gives all eight sums. Then

        E clip(v, lo, hi)^2 = sum w m2_in + hi^2 sum w (1 - Phi(c))
                              + lo^2 sum w Phi(a),
        dP/db = (rate_hi sum w phi(c) - rate_lo sum w phi(a))/s,
        d E clip^2/db = 2 (hi rate_hi sum w (1 - Phi(c))
                           + lo rate_lo sum w Phi(a)),
        d2P/db2 = (rate_lo^2 sum w a phi(a) - rate_hi^2 sum w c phi(c))/s^2,
        d2 E clip^2/db2 = 2 (rate_hi^2 (sum w (1 - Phi(c)) - hi sum w phi(c)/s)
                             + rate_lo^2 (sum w Phi(a) + lo sum w phi(a)/s)).

    1 - Phi(c) is never negative, so no clamp is needed.
    """
    nodes, weights, nodes_sq, nodes_2 = _noise_nodes(noise)
    rows = np.empty((8, nodes.size))
    e, cdf, pdf = _window_edges(lo, hi, nodes, s, out=(rows[6:8], rows[2:4], rows[4:6]))
    np.subtract(cdf[1], cdf[0], out=rows[0])
    _window_m2(e, rows[0], pdf, nodes_sq, nodes_2, s, out=rows[1])
    np.subtract(1.0, cdf[1], out=cdf[1])
    p_in, m2_in, below, above, f_lo, f_hi, xf_lo, xf_hi = (rows @ weights).tolist()
    return (p_in, (rate_hi * f_hi - rate_lo * f_lo) / s,
            m2_in + hi * hi * above + lo * lo * below,
            2.0 * (hi * rate_hi * above + lo * rate_lo * below),
            (rate_lo * rate_lo * xf_lo - rate_hi * rate_hi * xf_hi) / (s * s),
            2.0 * (rate_hi * rate_hi * (above - hi * f_hi / s)
                   + rate_lo * rate_lo * (below + lo * f_lo / s)))


def _noise_average(conditional, noise, sigma):
    """Average over W of the tuple conditional(mu, s) for v ~ N(mu, s^2).

    Exact for a law with normal components, whose v is normal given the
    component: a normal mixture, or a normal law as its one component
    (0.0 + 1.0 x is x, and no first moment or first derivative here is
    -0.0, so their bits are those of a direct evaluation; a second
    derivative of -0.0 reads 0.0). Otherwise, at sigma = 0, the point
    masses at the noise law's nodes, one dot product per entry.
    """
    components = getattr(noise, "components", None)
    if components is not None:
        totals = [0.0] * 6
        for w, v in components:
            for i, x in enumerate(conditional(0.0, math.sqrt(v + sigma * sigma))):
                totals[i] += w * x
        return tuple(totals)
    nodes, weights = _noise_nodes(noise)[:2]
    return tuple(float(weights @ x) for x in conditional(nodes, sigma))


def score_moments(loss, b, noise, sigma):
    """Population slope E d1Phi(v; b), E Phi(v; b)^2 and their derivatives in b.

    Returns (slope, d slope/db, E Phi^2, d E Phi^2/db, d2 slope/db2,
    d2 E Phi^2/db2), v = W + sigma Z: the (f, f', g, g', f'', g'') curve of
    `calibration.solve_increasing`. With P the mass of v in the score
    window (lo, hi] = (kappa + b)(e_lo, e_hi] and M = E clip(v, lo, hi)^2,
    the slope is c P and E Phi^2 is c^2 M, with c = b/(kappa + b),
    c' = kappa/(kappa + b)^2 and c'' = -2 kappa/(kappa + b)^3. The edges
    move with b at rates e_lo and e_hi, so with f the density of v

        P' = e_hi f(hi) - e_lo f(lo),
        M' = 2 (hi e_hi P_above + lo e_lo P_below),
        P'' = (e_lo^2 E[z_lo phi(z_lo)] - e_hi^2 E[z_hi phi(z_hi)])/s^2,
        M'' = 2 (e_hi^2 (P_above - hi f(hi)) + e_lo^2 (P_below + lo f(lo))),

    P_above and P_below the masses of v above and below the window, where
    the clip is the edge, and z_lo, z_hi the edges standardized as the
    normal v given W (or given a mixture component) is, with sd s. Then

        d slope/db = c' P + c P',      d2 slope/db2 = c'' P + 2 c' P' + c P'',
        d E Phi^2/db = 2 c c' M + c^2 M',
        d2 E Phi^2/db2 = 2 c'^2 M + 2 c c'' M + 4 c c' M' + c^2 M''.

    All six come from one pass over the window: exact for Normal and
    NormalMixture noise (`_conditional` per component), by Gauss-Legendre
    quadrature over the noise law otherwise (`_node_sums`, or at sigma = 0
    `_conditional`'s point masses at the nodes, whose P' and P'' are 0 and
    whose derivatives are those between the jumps); c and its derivatives
    multiply the noise averages, not the nodes. The quadrature has no node
    beyond |w| of about 21.1 for t(4) and 10.4 for Laplace, so once the
    window holds every node by many sigma, P reads exactly 1 and P', P''
    all but vanish: the kinked losses' slope reads 1 and f', f'' nearly 0
    (2.2e-22 and -2.0e-21 at t(4), absolute, b = 30, sigma = 1). A target
    there gives Newton no usable step, and the search falls back to
    bisection. The infinite window of least squares gives (c, c', c^2 m,
    2 c c' m, c'', (2 c'^2 + 2 c c'') m), m = variance + sigma^2, for
    every law and raises ValueError when the noise variance is infinite.
    """
    kappa, e_lo, e_hi = score_shape(loss)
    c = b / (kappa + b)
    dc = kappa / (kappa + b) ** 2
    d2c = -2.0 * kappa / (kappa + b) ** 3
    if math.isinf(e_hi):
        var = noise.variance
        if not math.isfinite(var):
            raise ValueError(
                "unbounded-score moments diverge under infinite-variance noise")
        m = var + sigma * sigma
        return c, dc, c * c * m, 2.0 * c * dc * m, d2c, 2.0 * (dc * dc + c * d2c) * m
    lo, hi = (kappa + b) * e_lo, (kappa + b) * e_hi
    if sigma > 0.0 and getattr(noise, "components", None) is None:
        p_in, dp_in, clip_sq, dclip_sq, d2p_in, d2clip_sq = _node_sums(
            lo, hi, e_lo, e_hi, noise, sigma)
    else:
        p_in, dp_in, clip_sq, dclip_sq, d2p_in, d2clip_sq = _noise_average(
            lambda mu, s: _conditional(lo, hi, e_lo, e_hi, mu, s), noise, sigma)
    return (c * p_in, dc * p_in + c * dp_in, c * c * clip_sq,
            2.0 * c * dc * clip_sq + c * c * dclip_sq,
            d2c * p_in + 2.0 * dc * dp_in + c * d2p_in,
            2.0 * (dc * dc + c * d2c) * clip_sq + 4.0 * c * dc * dclip_sq
            + c * c * d2clip_sq)


# ---------------------------------------------------------------------------
# channel updates
# ---------------------------------------------------------------------------


def se_tau_update(sigma_sq, dist, loss, slope, b_start=None):
    """Calibrate b on the current residual law and advance tau_sq.

    Returns (tau_sq, b) where b solves E d1Phi(W + sigma Z; b) = slope and
    tau_sq = E Phi(W + sigma Z; b)^2 / slope^2. An infinite score window
    (least squares) has the closed form b = kappa slope/(1 - slope), as in
    `calibration.calibrate_smooth`, and one `score_moments` call there.
    Otherwise `solve_increasing` takes safeguarded steps on
    `score_moments`, the slope and its analytic derivatives in b, from
    b_start (b = 1 when None; a fixed-point run passes `_predicted_b` of
    its rows), and raises CalibrationError when the slope is not bracketed
    on [1e-12, 1e12]. E Phi^2 rides along with its derivatives in b. For
    sigma > 0, where the slope is continuous in b, the steps are Halley's
    where its correction to Newton's step is small and Newton's elsewhere,
    and the search either stops on an evaluated point and reads E Phi^2
    there, or takes a last Halley step of at most 1.0e-5 on log10 b
    without a window pass and carries E Phi^2 to the stepped b to second
    order, within the order of the step's cube (the tau equation then
    holds within 1e-13 relative of a fresh pass at b on the tested cases,
    and the slope equation within the stop's 1e-13 on log10 b). At
    sigma = 0 the steps are Newton's and every one is evaluated.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"slope must be in (0, 1), got {slope}")
    sigma = math.sqrt(sigma_sq)
    noise = dist.noise

    kappa, _, e_hi = score_shape(loss)
    if math.isinf(e_hi):
        b = kappa * slope / (1.0 - slope)
        sq = score_moments(loss, b, noise, sigma)[2]
    else:
        b, sq = solve_increasing(
            lambda bb: score_moments(loss, bb, noise, sigma), slope, start=b_start,
            continuous=sigma > 0.0)
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

    One scalar risk call per atom, the weighted terms summed in the
    prior's order. alpha is made a Python float, so a numpy scalar from an
    alpha grid does not turn the sum into one.
    """
    alpha = float(alpha)
    total = 0.0
    for p, x0 in prior.full_atoms:
        total += p * soft_threshold_risk(x0 / tau, alpha)
    return total


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeConfig:
    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        check_budget(self.tol, self.max_iter)


_TAU_SQ_CAP = 1e14


@dataclass(frozen=True)
class SeResult:
    """A fixed-point run: its rows (t, sigma_sq, tau_sq, b, theta) and flags.

    Row 0 is the start and row t the state after t iterations. The starred
    values are the entries of the last row, nan when the run diverged, and
    iterations is the t of the last row, 0 when there are no rows (a run
    flagged diverged without iterating). It leaves out row 0, itself one
    tau update; `solver.RampResult.iterations` counts every row, the
    bootstrap pass included, so it reads one more for the same number of
    rows.
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


# the entries of a row of `_run`, in order
ROW_COLUMNS = ("t", "sigma_sq", "tau_sq", "b", "theta")


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
    if alpha is None or not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
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

    taus = [r[2] for r in rows]
    diffs = [y - x for x, y in zip(taus, taus[1:])]
    monotone = not diverged and (all(d <= config.tol for d in diffs)
                                 or all(d >= -config.tol for d in diffs))
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


def tune_alpha(dist, loss, delta, alpha_grid=None):
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
    config = SeConfig()
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

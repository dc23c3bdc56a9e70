"""Monte Carlo references for the closed-form AMSE.

Sampling checks the library's closed forms from the outside, so it lives
with the tests rather than in `ramp`.
"""

import math
from collections import namedtuple

import numpy as np

from ramp.losses import soft_threshold

AmseEstimate = namedtuple("AmseEstimate", ["value", "stderr", "samples"])

CHUNK = 250_000


def sample_prior(prior, rng, n):
    """n draws from a `SignalPrior`, the zero atom included."""
    probs = np.array([p for p, _ in prior.full_atoms])
    vals = np.array([a for _, a in prior.full_atoms])
    return rng.choice(vals, size=n, p=probs)


def amse_monte_carlo(prior, tau, theta, samples=10 ** 6, seed=0):
    """Sampled E[(eta(X0 + tau Z; theta) - X0)^2] with its standard error."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(CHUNK, samples - done)
        x0 = sample_prior(prior, rng, m)
        err = soft_threshold(x0 + tau * rng.standard_normal(m), theta) - x0
        sq = err * err
        total += float(np.sum(sq))
        total_sq += float(np.sum(sq * sq))
        done += m
    value = total / samples
    var = max(total_sq / samples - value * value, 0.0)
    return AmseEstimate(value, math.sqrt(var / samples), samples)

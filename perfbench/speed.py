"""Host speed, tracked by a fixed reference kernel timed between ops.

The host this benchmark was built on runs every process up to 1.6x slower
for stretches of 5 s to over a minute (other tenants share its cores), so
two runs of identical work can differ by 40% in wall time. Each workload
names a kernel that does the same kind of work as its ops and never
touches `ramp`: small vectorized special-function calls for state
evolution, products with the design and n x p arrays for the solver, and
proximal subgradient steps for the oracle. The slowdowns of different
kinds of work differ, so one kernel for all did not track state evolution.
Each op's wall time is divided by its kernel's time measured around it and
multiplied by the kernel's usual time on that host: the result is the
op's time at the host's usual speed, in seconds. Set-up, which is mostly
importing, is scaled the same way by a kernel that compiles and runs a
generated module.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
NOMINAL_SE_S = 0.0115
NOMINAL_SOLVER_S = 0.0177
NOMINAL_ORACLE_S = 0.019
NOMINAL_SETUP_S = 0.0597

PROBE_EVERY_S = 0.25    # at most this long between two kernel samples


def _se_kernel(state):
    """Gaussian-window moments on a 440-node vector: the SE inner loop's mix."""
    u = state["u"]
    s = 0.0
    for i in range(300):
        a = (u - 0.01 * i) / 1.3
        p = 0.5 * special.erfc(-a / _SQRT2) - 0.5 * special.erfc(a / _SQRT2)
        q = np.where(np.isfinite(a), np.exp(-0.5 * a * a), 0.0)
        s += float(np.sum(p * q)) + math.sqrt(i + 1.0)
    return s


def _solver_kernel(state):
    """Window counts on a residual vector plus products with the design."""
    A, x, r = state["A"], state["x"], state["r"]
    s = 0.0
    for _ in range(10):
        s += float((A.T @ r).sum()) + float((A @ x).sum())
        s += float(np.sum(np.abs(r[:, None] - 1e-7 * A)))
    for i in range(3000):
        s += math.sqrt(i + 1.0)
    return s


def _oracle_kernel(state):
    """Proximal subgradient steps on an l1 fit, then two n x p probes.

    The same mix as the oracle's Polyak loop and its coordinate probes,
    whose fresh n x p temporaries spend about a fifth of a solve in page
    faults.
    """
    A, y = state["A"], state["r"]
    x = np.zeros(A.shape[1])
    s = 0.0
    for _ in range(200):
        r = y - A @ x
        s += float(np.sum(np.abs(r)))
        v = x + 1e-3 * (A.T @ np.sign(r))
        x = np.sign(v) * np.maximum(np.abs(v) - 1e-4, 0.0)
    for h in (1e-7, 2e-7):
        s += float(np.sum(np.abs(y[:, None] - h * A).sum(axis=0)))
    return s


_SETUP_SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n    x = [a + j * b for j in range(3)]\n    return {{'k': x, 'i': {i}}}\n"
    for i in range(300))


def setup_kernel():
    """Seconds to compile and run a 300-function module three times.

    Parsing, compiling and running module bodies is the interpreter-bound
    work of importing, so this tracks the host's speed at set-up.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        exec(compile(_SETUP_SOURCE, "<setup-kernel>", "exec"), {})
    return time.perf_counter() - t0


# kernel and its median time on the 2-core host README.md describes
KERNELS = {
    "se": (_se_kernel, NOMINAL_SE_S),
    "solver": (_solver_kernel, NOMINAL_SOLVER_S),
    "oracle": (_oracle_kernel, NOMINAL_ORACLE_S),
}


class SpeedProbe:
    """Times one kernel, chosen to do the same kind of work as a workload."""

    def __init__(self, kind):
        self._kernel, self.nominal_s = KERNELS[kind]
        rng = np.random.default_rng(12345)
        self._state = {
            "A": rng.normal(size=(320, 500)) / math.sqrt(320.0),
            "x": rng.normal(size=500),
            "r": rng.normal(size=320),
            "u": np.linspace(-3.0, 3.0, 440),
        }
        self._last = -math.inf

    def due(self):
        return time.perf_counter() - self._last >= PROBE_EVERY_S

    def sample(self):
        t0 = time.perf_counter()
        self._kernel(self._state)
        self._last = time.perf_counter()
        return self._last - t0


def scaled_times(times, samples, nominal_s):
    """Op times at the usual host speed.

    samples lists (position, kernel seconds), position being the index of
    the op the sample was taken before (len(times) for the one after the
    last op). Each op is scaled by the mean of the samples on either side.
    """
    out = []
    for i, t in enumerate(times):
        before = max((p, k) for p, k in samples if p <= i)[1]
        after = min((p, k) for p, k in samples if p > i)[1]
        out.append(t * nominal_s / (0.5 * (before + after)))
    return out

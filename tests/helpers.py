"""Helpers shared by the test modules.

`make_instance` draws a small Gaussian-design problem, `count_calls`
counts the calls made through a module's attribute, and `load_digest`
loads tools/digest.py by path, whose `oracle` fixtures (the sweep draws,
the zero-fit edge and the benchmark's kinked fits) the tests reuse.
"""

import math
import os
from functools import lru_cache
from importlib import util
from pathlib import Path
from unittest import mock

import numpy as np

from ramp.solver import ProblemInstance

ROOT = Path(__file__).resolve().parents[1]


def make_instance(rng, n, p, s, noise_sd=math.sqrt(0.2)):
    """Gaussian design with unit-norm columns in expectation, +-1 signal."""
    A = rng.normal(0.0, 1.0 / math.sqrt(n), (n, p))
    x = np.zeros(p)
    support = rng.choice(p, size=s, replace=False)
    x[support] = rng.choice([-1.0, 1.0], size=s)
    y = A @ x + rng.normal(0.0, noise_sd, n)
    return ProblemInstance(A=A, y=y, s=s, x_true=x)


def count_calls(monkeypatch, module, *names):
    """Replace each module.name by a wrapper that counts its calls; returns
    the counts by name."""
    calls = {}
    for name in names:
        original = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@lru_cache(maxsize=None)
def load_digest():
    """tools/digest.py as a module, loaded once. Loading it sets
    OPENBLAS_NUM_THREADS, which is undone here so that the tests keep the
    environment they started with."""
    spec = util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    module = util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module

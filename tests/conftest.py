import math

import numpy as np
import pytest

from klnmf import objective

#: Values of DENSE_SLICE_DENSITY that send every Newton sweep down one slice
#: path: the support path never counts data as dense, the dense path always.
SLICE_PATHS = {"support": math.inf, "dense": 0.0}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_triple(rng, m=None, n=None, r=None, positive=True):
    """A random (V, W, H) with strictly positive factors by default."""
    m = m or int(rng.integers(2, 7))
    n = n or int(rng.integers(2, 7))
    r = r or int(rng.integers(1, min(m, n) + 1))
    W = rng.uniform(0.1 if positive else 0.0, 2.0, size=(m, r))
    H = rng.uniform(0.1 if positive else 0.0, 2.0, size=(r, n))
    V = rng.uniform(0.0, 3.0, size=(m, n))
    return V, W, H


def each_slice_path(monkeypatch):
    """Force each Newton slice path in turn, yielding its name."""
    for name, density in SLICE_PATHS.items():
        monkeypatch.setattr(objective, "DENSE_SLICE_DENSITY", density)
        yield name

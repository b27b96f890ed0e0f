import math

import numpy as np
import pytest

from srmkit import construct_curve


def random_curve(rng, max_p=50, max_c=1000, min_p=0):
    """Random integer citation record, sorted by construction."""
    p = int(rng.integers(min_p, max_p + 1))
    if p == 0:
        return construct_curve([])
    return construct_curve(rng.integers(1, max_c + 1, size=p))


def value_at(curve, x):
    """Pointwise value of the curve's step function at x."""
    if x <= 0:
        return 0.0
    i = math.ceil(x)
    return float(curve.values[i - 1]) if i <= curve.p else curve.tail


def dominating_pair(rng, max_p=50, max_c=1000):
    """(X1, X2) with X2 >= X1 at every rank (X2 may have more papers)."""
    x1 = random_curve(rng, max_p=max_p, max_c=max_c)
    bumps = rng.integers(0, max_c + 1, size=x1.p)
    extra = rng.integers(1, max_c + 1, size=int(rng.integers(0, 6)))
    merged = np.concatenate([x1.values + bumps, extra])
    return x1, construct_curve(merged)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

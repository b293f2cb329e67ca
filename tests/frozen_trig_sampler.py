"""The trig sampler as it was when the recorded trig estimates were taken.

``sample`` inverted the trig CDF by one two-sided bisection, halving
[-pi/2, pi/2] to 1e-14, until it took Newton steps.  The recorded
estimates in ``tests/data/trig_ml_reference.json`` and ``test_models`` were
taken on its draws, so they are replayed on them; its draws also serve as
the reference the Newton sampler is checked against.
"""

import math

import numpy as np

from gaussn import Observations

HALF_PI = math.pi / 2.0


def bisect_inverse_cdf(us, xi):
    """x with CDF(x) = u: the middle of the band where the computed CDF is u, to 1e-14."""
    offset = -HALF_PI - xi
    floor = (offset + 0.5 * math.sin(2.0 * offset)) / math.pi
    lo = np.full((2, us.size), -HALF_PI)
    hi = np.full((2, us.size), HALF_PI)
    while np.max(hi - lo) > 1e-14:
        mid = 0.5 * (lo + hi)
        v = mid - xi
        cdf = (v + 0.5 * np.sin(2.0 * v)) / math.pi - floor
        below = np.stack([cdf[0] < us, cdf[1] <= us])
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.25 * np.sum(lo + hi, axis=0)


def sample_by_bisection(xi, n, seed):
    """``sample(make_model("trig"), xi, n, seed)`` as drawn by the bisection sampler."""
    return Observations(bisect_inverse_cdf(np.random.default_rng(seed).random(n), xi))

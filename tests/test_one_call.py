"""The Fisher forms evaluate their finite-difference arms in one family call
on a column of xi, and the H integrand takes ln p(u) and the log ratio from
one ``h_terms`` call.  Each must give the bits of a call per arm or per
term, as the references below make them, and the same error and warnings,
for every family record and the test-only Laplace record."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussn import QuadratureError
from gaussn.divergence import _h_integrand
from gaussn.information import _CURV_STEP, _GRAD_STEP, _curvature_integrand, _score_fd
from gaussn.models import _Binom, _Chi2Log, _Gauss, _Trig
from test_family_contract import Laplace

HALF_PI = math.pi / 2.0

RECORDS = {
    "chi2log": _Chi2Log(1.0),
    "gauss": _Gauss(1.0),
    "gauss-2": _Gauss(2.0),
    "trig": _Trig(1.0),
    "binom": _Binom(1.0),
    "laplace": Laplace(1.0),
}
# Records with their own H, and the window of u that H is integrated over.
CARRIERS = {"chi2log": 40.0, "gauss": 12.0, "trig": HALF_PI, "laplace": 40.0}
STEPS = (_GRAD_STEP, _CURV_STEP, 1e-2)


def _score_per_arm(family, xs, xi, p, h):
    def diff(hh):
        return (family.density(xs, xi + hh) - family.density(xs, xi - hh)) / (2.0 * hh)

    d = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
    return np.divide(d, p, out=np.zeros_like(p), where=p > 0.0)


def _curvature_per_arm(family, xs, xi, h):
    ld = family.log_density(xs, xi)
    return np.exp(ld) * (
        (family.log_density(xs, xi + h) - 2.0 * ld + family.log_density(xs, xi - h)) / h**2
    )


def _h_integrand_per_term(unit, us, deltas):
    p0 = np.exp(unit.log_density(us, 0.0))
    return np.multiply(p0, unit.log_ratio(us, deltas), out=np.zeros_like(p0), where=p0 > 0.0)


def _outcome(call):
    """The dtype, shape and bytes of each array returned, or the error; and
    the distinct warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = call()
            arrays = got if isinstance(got, tuple) else (got,)
            result = [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]
        except Exception as exc:
            result = ("raises", type(exc), str(exc))
    return result, sorted({(w.category.__name__, str(w.message)) for w in caught})


def check_arms(name, xs, xi, h):
    """The score's four arms and the curvature's three rows, one call each."""
    family = RECORDS[name]
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        p = family.density(xs, xi)
    assert _outcome(lambda: _score_fd(family, xs, xi, p, h)) == _outcome(
        lambda: _score_per_arm(family, xs, xi, p, h)
    )
    stencil = np.array([[xi], [xi + h], [xi - h]])
    assert _outcome(lambda: _curvature_integrand(family, stencil, h, xs)) == _outcome(
        lambda: _curvature_per_arm(family, xs, xi, h)
    )


def check_h_terms(name, us, deltas):
    """``h_terms`` and the H integrand against log_density and log_ratio."""
    unit = RECORDS[name]
    us, deltas = np.asarray(us, dtype=float), np.asarray(deltas, dtype=float)
    assert _outcome(lambda: unit.h_terms(us, deltas)) == _outcome(
        lambda: (unit.log_density(us, 0.0), unit.log_ratio(us, deltas))
    )
    assert _outcome(lambda: _h_integrand(unit, us, deltas)) == _outcome(
        lambda: _h_integrand_per_term(unit, us, deltas)
    )


# -- fixed cases, rerun under other kernels by test_lockstep -------------------


def _fixed_arm_cases():
    rng = np.random.default_rng(2207)
    cases = []
    for name in RECORDS:
        if name == "binom":
            xs = np.array([0.0, 1.0])
            xis = [0.05, 0.3, HALF_PI - 0.05, 0.0, HALF_PI, -HALF_PI, 1e-6]
        elif name == "trig":
            # the abscissae at, and a hair either side of, the density zeros
            xs = np.concatenate([rng.uniform(-HALF_PI, HALF_PI, 37), [-HALF_PI, HALF_PI]])
            xis = [0.3, -1.1, 0.0, 1.4]
            xs = np.concatenate([xs] + [[xi - HALF_PI, xi + HALF_PI - 1e-12] for xi in xis])
        else:
            xs = np.concatenate([rng.uniform(-40.0, 40.0, 45), [0.0, -40.0, 40.0]])
            xis = [0.0, 0.3, -2.5]
        cases += [(name, xs.tolist(), xi, h) for xi in xis for h in STEPS]
    return cases


def _fixed_h_cases():
    rng = np.random.default_rng(2208)
    cases = []
    for name, window in CARRIERS.items():
        us = rng.uniform(-window, window, 45)
        period = math.pi if name == "trig" else 8.0
        cases.append((name, us.tolist(), rng.uniform(-period, period, 45).tolist()))
        cases.append((name, us.tolist(), [1e-15] * 45))
    # the shifted cosine at its zeros: u + delta = +-pi/2 and a hair off
    us = np.array([0.3, -0.7, 1.2, 1.5, -1.5])
    deltas = HALF_PI - us
    cases.append(("trig", us.tolist(), deltas.tolist()))
    cases.append(("trig", us.tolist(), (deltas + 1e-9).tolist()))
    cases.append(("trig", us.tolist(), (-HALF_PI - us).tolist()))
    # chi2log up to, at and past the shift where e^delta overflows
    edge = _Chi2Log.max_shift
    us = rng.uniform(-40.0, 40.0, 6)
    cases.append(("chi2log", us.tolist(), [709.0, 709.7, edge - 1e-9, edge, 1.0, -3.0]))
    cases.append(("chi2log", us.tolist(), [1.0, 709.7, 710.0, edge + 1e-9, 800.0, 1.0]))
    return cases


ARM_CASES = _fixed_arm_cases()
H_CASES = _fixed_h_cases()


@pytest.mark.parametrize("name,xs,xi,h", ARM_CASES)
def test_arms_in_one_call_keep_the_bits_of_a_call_per_arm(name, xs, xi, h):
    check_arms(name, xs, xi, h)


@pytest.mark.parametrize("name,us,deltas", H_CASES)
def test_shared_h_terms_keep_the_bits_of_two_methods(name, us, deltas):
    check_h_terms(name, us, deltas)


def test_chi2log_h_terms_name_the_first_overflowing_shift():
    with pytest.raises(QuadratureError, match=r"^expm1\(720\.0\) overflowed"):
        RECORDS["chi2log"].h_terms(np.zeros(3), np.array([1.0, 720.0, 800.0]))


# -- drawn cases ---------------------------------------------------------------


def _near(points, spread):
    """Floats within ``spread`` of one of ``points``."""
    return st.tuples(st.sampled_from(points), st.floats(-spread, spread)).map(sum)


@st.composite
def _arm_cases(draw):
    name = draw(st.sampled_from(sorted(RECORDS)))
    if name == "binom":
        xs = [0.0, 1.0]
        xi = draw(st.floats(-HALF_PI, HALF_PI) | _near([0.0, HALF_PI, -HALF_PI], 1e-6))
    elif name == "trig":
        xi = draw(st.floats(-HALF_PI, HALF_PI))
        near_zero = _near([xi - HALF_PI, xi + HALF_PI], 1e-6)
        xs = draw(st.lists(st.floats(-HALF_PI, HALF_PI) | near_zero, min_size=1, max_size=40))
    else:
        xi = draw(st.floats(-5.0, 5.0))
        xs = draw(st.lists(st.floats(-45.0, 45.0), min_size=1, max_size=40))
    return name, xs, xi, draw(st.sampled_from(STEPS))


@st.composite
def _h_cases(draw):
    name = draw(st.sampled_from(sorted(CARRIERS)))
    window = CARRIERS[name]
    us = draw(st.lists(st.floats(-window, window), min_size=1, max_size=30))
    if name == "trig":
        at_zero = [_near([HALF_PI - u, -HALF_PI - u], 1e-9) for u in us]
        deltas = [
            draw(st.floats(-math.pi, math.pi) | near.filter(lambda d: abs(d) <= math.pi))
            for near in at_zero
        ]
    elif name == "chi2log":
        overflow = _near([_Chi2Log.max_shift], 0.05)
        shift = st.floats(-50.0, 50.0) | overflow | st.floats(-1e-12, 1e-12)
        deltas = [draw(shift) for _ in us]
    else:
        deltas = [draw(st.floats(-20.0, 20.0) | st.floats(-1e-12, 1e-12)) for _ in us]
    return name, us, deltas


@settings(max_examples=300, deadline=None)
@given(_arm_cases())
def test_arms_in_one_call_on_drawn_abscissae(case):
    check_arms(*case)


@settings(max_examples=300, deadline=None)
@given(_h_cases())
def test_shared_h_terms_on_drawn_shifts(case):
    check_h_terms(*case)

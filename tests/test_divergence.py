import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussn import (
    InputError,
    QuadratureError,
    UnsupportedModelError,
    h_closed_form,
    h_derivative_numeric,
    h_functional,
    integrate,
    make_model,
    max_abs_derivative,
)
from gaussn.models import _Family
from gaussn.quadrature import Integral, QuadratureConfig

HALF_PI = math.pi / 2.0


def test_zero_shift_is_exactly_zero(all_models):
    for model in all_models:
        ev = h_functional(model, 0.0)
        assert ev.value == 0.0
        assert ev.error_estimate == 0.0


def test_gauss_value():
    gauss = make_model("gauss")
    ev = h_functional(gauss, 0.7)
    assert ev.value == pytest.approx(-0.245, abs=1e-10)  # -delta^2/2
    assert h_closed_form(gauss, 0.7) == pytest.approx(-0.245, rel=1e-15)


def test_chi2log_values(chi2):
    # Antiderivative of the shift derivative 1 - e^delta vanishing at 0.
    ev = h_functional(chi2, 1.0)
    assert ev.value == pytest.approx(2.0 - math.e, abs=1e-8)
    ev = h_functional(chi2, -1.0)
    assert ev.value == pytest.approx(-math.exp(-1.0), abs=1e-8)
    assert h_closed_form(chi2, 0.0) == 0.0


def test_trig_values(trig):
    assert h_functional(trig, math.pi / 4.0).value == pytest.approx(-1.0, abs=1e-8)
    assert h_functional(trig, HALF_PI).value == pytest.approx(-2.0, abs=1e-8)
    assert h_closed_form(trig, math.pi / 4.0) == pytest.approx(-1.0, rel=1e-15)
    assert h_closed_form(trig, HALF_PI) == pytest.approx(-2.0, rel=1e-15)


def test_large_shifts_stay_accurate(chi2, gauss):
    # Relative accuracy holds even when H spans hundreds of orders of
    # magnitude below zero (the skewed model grows like -e^delta).
    for d in (10.0, 50.0, -50.0, -200.0):
        got = h_functional(chi2, d).value
        want = h_closed_form(chi2, d)
        assert got == pytest.approx(want, rel=1e-12)
    assert h_functional(gauss, 12.0).value == pytest.approx(-72.0, rel=1e-12)


def test_two_argument_reduction(chi2, gauss):
    # The raw two-argument integral depends only on xi_ml - xi: shifting
    # both arguments leaves it unchanged, and it matches h_functional.
    rng = np.random.default_rng(17)
    for model in (chi2, gauss):
        def raw(m, xi):
            def f(xs):
                lp_m = _logp(model, xs - m)
                lp_x = _logp(model, xs - xi)
                out = np.exp(lp_m) * (lp_x - lp_m)
                return np.where(np.isfinite(out), out, 0.0)

            return integrate(f, (-math.inf, math.inf)).value

        for _ in range(4):
            m, xi, a = rng.uniform(-1.5, 1.5, size=3)
            v = raw(m, xi)
            assert v == pytest.approx(raw(m + a, xi + a), abs=1e-9)
            assert v == pytest.approx(h_functional(model, float(m - xi)).value, abs=1e-9)


def _logp(model, u):
    if model.id.value == "chi2log":
        return u - np.exp(u)
    return -0.5 * math.log(2.0 * math.pi) - 0.5 * u**2


@settings(max_examples=25, deadline=None)
@given(d=st.floats(0.01, 1.5))
def test_trig_mirror_symmetry(d):
    trig = make_model("trig")
    assert abs(h_functional(trig, d).value - h_functional(trig, -d).value) <= 1e-9


def test_odd_numeric_derivatives_vanish_at_zero(trig):
    assert abs(h_derivative_numeric(trig, 1, 0.0)) <= 1e-4
    assert abs(h_derivative_numeric(trig, 3, 0.0)) <= 1e-4


def test_trig_derivative_anchors(trig):
    assert trig._family.h_derivative(1, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert trig._family.h_derivative(2, 0.0) == pytest.approx(-4.0, rel=1e-15)
    assert trig._family.h_derivative(3, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert trig._family.h_derivative(4, 0.0) == pytest.approx(16.0, rel=1e-15)
    assert trig._family.h_derivative(1, 0.3) == pytest.approx(-2.0 * math.sin(0.6), rel=1e-14)


def test_chi2log_derivative_orientation(chi2):
    # With delta = xi_ml - xi: first derivative 1 - e^delta, all higher
    # orders -e^delta; the third derivative at zero is -1.
    assert chi2._family.h_derivative(1, 0.0) == 0.0
    assert chi2._family.h_derivative(3, 0.0) == -1.0
    assert chi2._family.h_derivative(2, 0.5) == pytest.approx(-math.exp(0.5), rel=1e-15)
    # numeric cross-check of the orientation
    assert h_derivative_numeric(chi2, 1, 0.5) == pytest.approx(
        1.0 - math.exp(0.5), abs=1e-6
    )


def test_numeric_derivative_example(trig, gauss, chi2):
    assert h_derivative_numeric(trig, 1, 0.3) == pytest.approx(
        -2.0 * math.sin(0.6), abs=1e-4
    )
    assert h_derivative_numeric(gauss, 2, 1.1) == pytest.approx(-1.0, abs=1e-5)
    assert h_derivative_numeric(chi2, 2, 0.0) == pytest.approx(-1.0, abs=1e-4)
    for order in (1, 2, 3, 4):  # a whole-valued float is that order
        assert h_derivative_numeric(trig, float(order), 0.3) == h_derivative_numeric(trig, order, 0.3)


def test_max_abs_derivative(chi2, gauss, trig, binom):
    w160 = 3.0 / math.sqrt(160.0)
    assert max_abs_derivative(chi2, 3, w160) == pytest.approx(math.exp(w160), rel=1e-15)
    assert max_abs_derivative(trig, 4, 0.5) == 16.0
    assert max_abs_derivative(trig, 4, 3.0) == 16.0
    assert max_abs_derivative(binom, 4, 0.5) == 16.0  # carried by the trig family
    assert max_abs_derivative(gauss, 3, 1.0) == 0.0
    assert max_abs_derivative(gauss, 5.0, 1.0) == 0.0
    # no closed maximum, no answer: the criterion never asks for these orders
    # (gauss at 3.5 once read 0.0: H has no derivative of fractional order)
    for model, order in ((trig, 2), (binom, 3), (chi2, 4), (gauss, 2), (gauss, 3.5)):
        with pytest.raises(UnsupportedModelError, match="no closed max"):
            max_abs_derivative(model, order, 0.3)
    for halfwidth in (0.0, math.nan):
        with pytest.raises(InputError) as exc:
            max_abs_derivative(chi2, 3, halfwidth)
        assert str(exc.value) == "interval halfwidth must be positive"


CHI2LOG_SHIFT_LIMIT = math.log(sys.float_info.max)  # 709.78...: e^delta overflows beyond it


@pytest.mark.parametrize(
    "call",
    (
        lambda m: h_closed_form(m, 800.0),
        lambda m: m._family.h_derivative(1, 800.0),
        lambda m: m._family.h_derivative(3, 710.0),
        lambda m: max_abs_derivative(m, 3, 800.0),
    ),
)
def test_chi2log_closed_forms_name_their_overflow_limit(chi2, call):
    with pytest.raises(InputError, match=f"delta <= {CHI2LOG_SHIFT_LIMIT!r}"):
        call(chi2)


def test_chi2log_closed_forms_hold_up_to_the_limit(chi2):
    below = 709.78
    assert h_closed_form(chi2, below) == below + 1.0 - math.exp(below)
    assert max_abs_derivative(chi2, 3, below) == math.exp(below)
    assert h_closed_form(chi2, -800.0) == -799.0  # e^delta underflows harmlessly


def test_chi2log_quadrature_h_blames_the_overflow(chi2):
    with pytest.raises(QuadratureError, match=r"expm1\(800\.0\) overflowed"):
        h_functional(chi2, 800.0)


def test_chi2log_log_ratio_names_the_first_overflowing_shift(chi2):
    # Each abscissa carries its own shift; the error names the first that overflows.
    us = np.zeros(4)
    with pytest.raises(QuadratureError, match=r"expm1\(800\.0\) overflowed"):
        chi2._family.log_ratio(us, np.array([1.0, 800.0, 900.0, 1.0]))


@pytest.mark.parametrize("name,window", [("chi2log", 40.0), ("gauss", 12.0)])
def test_truncation_error_names_the_family_window(name, window):
    # A line family integrates over its own window, whatever cfg.tail_cutoff
    # says, so the error names that window and does not advise tail_cutoff.
    delta = {"chi2log": 60.0, "gauss": 1e14}[name]
    messages = []
    for cfg in (None, QuadratureConfig(tail_cutoff=200.0)):
        with pytest.raises(QuadratureError, match="truncation point") as exc:
            h_functional(make_model(name), delta, cfg)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert f"|x| <= {window!r}" in messages[0]
    assert "tail_cutoff" not in messages[0]


def test_unsupported_operations(binom, trig):
    with pytest.raises(UnsupportedModelError):
        h_closed_form(binom, 0.2)
    with pytest.raises(InputError):
        h_functional(trig, 3.5)  # beyond one period
    # 2.5 once ran the order-4 stencil and divided by scale^2.5 (16.0000005)
    for order in (5, 0, 2.5, 1.5, math.nan):
        with pytest.raises(InputError) as exc:
            h_derivative_numeric(trig, order, 0.1)
        assert str(exc.value) == "numeric derivatives support orders 1 through 4"


def test_binomial_borrows_trig_h(binom, trig):
    for d in (0.3, -0.9):
        assert h_functional(binom, d).value == pytest.approx(
            h_functional(trig, d).value, abs=1e-12
        )


def _binomial_h(mp, xi0, delta):
    """The binomial's own H: sum over x of p(x | xi0) ln(p(x | xi0 - delta) / p(x | xi0))."""
    c, s = mp.cos(xi0) ** 2, mp.sin(xi0) ** 2
    return c * mp.log(mp.cos(xi0 - delta) ** 2 / c) + s * mp.log(mp.sin(xi0 - delta) ** 2 / s)


@pytest.mark.parametrize(
    "xi0,third", ((0.3, -11.6935675766), (0.7, -1.37981380665), (math.pi / 4.0, 0.0))
)
def test_binomial_h_shares_only_its_curvature_with_the_carrier(binom, trig, xi0, third):
    # binom uses trig's H, cos(2 delta) - 1.  Its own H has the same
    # H''(0) = -4 at every xi0, but H'''(0) = 4 (tan xi0 - cot xi0), which
    # vanishes only at pi/4, and there H''''(0) = -32 against trig's +16.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x0 = mp.mpf(xi0)
        h2, h3, h4 = (float(mp.diff(lambda d: _binomial_h(mp, x0, d), 0, k)) for k in (2, 3, 4))
        own = float(_binomial_h(mp, x0, mp.mpf(0.2)))
    assert h2 == pytest.approx(-4.0, abs=1e-12)
    assert h3 == pytest.approx(third, abs=1e-10)
    assert h3 == pytest.approx(4.0 * (math.tan(xi0) - 1.0 / math.tan(xi0)), abs=1e-12)
    if third == 0.0:
        assert (h4, trig._family.h_derivative(4, 0.0)) == pytest.approx((-32.0, 16.0), abs=1e-9)
    # the same H from the record's log density, at delta = 0.2
    family, x = binom._family, np.array([0.0, 1.0])
    terms = family.density(x, xi0) * (family.log_density(x, xi0 - 0.2) - family.log_density(x, xi0))
    assert own == pytest.approx(float(np.sum(terms)), rel=1e-12)


# The smallest |delta| from which the quadrature H keeps H <= 0, measured at
# 100 shifts per decade (the _Family comment in models.py gives the values
# below it).  A line family's H falls under the 1e-17 floor of the absolute
# tolerance below its limit, and trig's H under the rounding of its log ratio.
SIGN_LIMITS = [("chi2log", 4e-13), ("gauss", 3e-17), ("trig", 1e-8)]


@pytest.mark.parametrize("name,limit", SIGN_LIMITS)
def test_h_keeps_its_sign_down_to_the_measured_limit(name, limit):
    model = make_model(name)
    decades = math.log10(1e-5 / limit)
    for k in range(int(20 * decades) + 1):  # 20 shifts per decade up to 1e-5
        d = limit * 10.0 ** (k / 20)
        for delta in (d, -d):
            assert h_functional(model, delta).value <= 0.0, delta


@pytest.mark.parametrize("delta", [1e-3, 0.01, 0.3, 1.4, 3.0])
def test_trig_h_within_1e_12_of_closed_form(trig, delta):
    # cos(2 delta) - 1, written without cancellation.
    assert abs(h_functional(trig, delta).value - -2.0 * math.sin(delta) ** 2) <= 1e-12


def test_evaluation_metadata(trig):
    ev = h_functional(trig, 0.4)
    assert ev.delta == 0.4
    assert ev.error_estimate >= 0.0


# H(delta) value and error estimate, recorded before the quadrature
# evaluated both halves of a split in one integrand call (gauss re-recorded
# when line families were integrated in their own frame, with gauss's
# window at 12 sigma; trig re-recorded when singular integrals were split at
# their singular points); the partition and the totals must not depend on how
# abscissae are grouped into calls.
FROZEN_H = {
    ("chi2log", 1e-6): (-5.000001666047091e-13, 1.0172992074185983e-16),
    ("chi2log", 0.5): (-0.14872127070012775, 5.1493559809772384e-11),
    ("chi2log", -1.3): (-0.5725317930340109, 5.843616356339659e-11),
    ("gauss", 1e-6): (-4.999999999536894e-13, 4.460928117126775e-16),
    ("gauss", 0.5): (-0.12499999999999965, 5.491230794956185e-12),
    ("gauss", -1.3): (-0.8449999999999975, 1.4298106042022976e-11),
    ("trig", 1e-6): (-1.99999936846181e-12, 2.0382140368165097e-16),
    ("trig", 0.5): (-0.45969769413191264, 5.488673145145605e-11),
    ("trig", -1.3): (-1.8568887533690202, 9.832980391996198e-11),
}


@pytest.mark.parametrize("name,delta", sorted(FROZEN_H))
def test_h_functional_bit_identical(name, delta):
    res = h_functional(make_model(name), delta)
    value, error = FROZEN_H[name, delta]
    assert repr(res.value) == repr(value)
    assert repr(res.error_estimate) == repr(error)


@pytest.mark.parametrize("sigma", [0.01, 50.0])
@pytest.mark.parametrize("ratio", [1e-3, 0.5, -1.3, 5.0])
def test_gauss_h_at_narrow_and_wide_scales(sigma, ratio):
    # H is integrated in the density's own frame: at sigma = 0.01 a window
    # of +-40 about 0 met the density in no panel and returned about 1e-63.
    model = make_model("gauss", sigma=sigma)
    delta = ratio * sigma
    assert h_functional(model, delta).value == pytest.approx(h_closed_form(model, delta), abs=1e-9)


@pytest.mark.parametrize("order,unit_value", [(1, -0.3), (2, -1.0), (3, 0.0), (4, 0.0)])
def test_gauss_numeric_derivatives_follow_sigma(order, unit_value):
    # H(delta) = H_1(delta / sigma), so sigma^k H^(k)(delta) is the unit
    # derivative at delta / sigma = 0.3, where H_1 = -d^2 / 2.  Steps fixed in
    # delta, not in delta / sigma, read 1.10 for order 4 at sigma = 50.
    got = h_derivative_numeric(make_model("gauss", sigma=50.0), order, 15.0)
    assert got * 50.0**order == pytest.approx(unit_value, abs=1e-3)


class _StepUnit(_Family):
    """A unit record on (0, 1) whose density underflows to 0 below 1/2 and is 1 above.

    Below 1/2 the log ratio is -inf; above, it is ``ratio``.
    """

    zeros = None
    fisher = 1.0

    def __init__(self, ratio):
        self.ratio = ratio

    def log_density(self, us, xi):
        return np.where(us < 0.5, -np.inf, 0.0)

    def log_ratio(self, us, delta):
        return np.where(us < 0.5, -np.inf, self.ratio)

    def integral_over_x(self, cfg, points):
        return Integral((0.0, 1.0), cfg)


def test_h_integrand_is_zero_where_the_density_underflows():
    from gaussn.divergence import _h_integrand, _h_unit

    unit = _StepUnit(-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (res,) = _h_unit(unit, [1.0], None)
        values = _h_integrand(unit, np.array([0.25, 0.75]), np.array([1.0, 1.0]))
    assert values.tolist() == [0.0, -1.0]
    assert res.value == pytest.approx(-0.5, abs=1e-12)


def test_h_integrand_keeps_an_infinite_ratio_against_positive_density():
    from gaussn.divergence import _h_unit

    with pytest.raises(QuadratureError, match="not finite"):
        _h_unit(_StepUnit(np.inf), [1.0], None)

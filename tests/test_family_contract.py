"""One contract for every family record in ``gaussn.models``.

Each row checks a record against its own definitions, on every record it
applies to: each entry of ``models._FAMILIES`` at every sigma of ``SIGMAS``
it accepts (the order row adds 1e-20 and 1e20), and the test-only Laplace
shift family below.  Rows on H run on the records that have their own
(binom borrows trig's).  Beyond its record, a family needs an entry in
``DEFINITIONS``, written apart from the record.
Laplace rows that fail are strict xfails in ``LEAKS``, with measured reasons."""

import math
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussn import (
    InputError,
    ModelSpec,
    UnsupportedModelError,
    criterion_report,
    fisher_curvature_form,
    fisher_gradient_form,
    h_derivative_numeric,
    h_functional,
    max_abs_derivative,
    minimal_n,
    ml_estimate,
    normalization_check,
    posterior_from_observations,
    remainder_ratio,
    sample,
)
from gaussn import models
from gaussn.criterion import detect_remainder_order
from gaussn.information import default_probe_points
from gaussn.models import _Binom, _Chi2Log, _Family, _Gauss, _Trig


class Laplace(_Family):
    """e^(-|x - xi|) / 2; H = -(|d| + e^(-|d|) - 1), derivatives at its kink from the right."""

    x_domain = xi_domain = (-math.inf, math.inf)
    fisher = 1.0
    order = 3  # H is even, but its kink at 0 leaves a remainder |d|^3 / 6
    tail = 40.0
    probe_span = (-3.0, 3.0)

    def log_density(self, x, xi):
        return -np.abs(x - xi) - math.log(2.0)

    def sample(self, rng, xi, n):
        return xi + rng.laplace(size=n)

    def ml(self, xs):
        return float(np.median(xs))

    def log_lik(self, xs, grid):
        return -np.sum(np.abs(xs[:, None] - grid), axis=0)

    def h(self, delta):
        return float(-(abs(delta) + math.expm1(-abs(delta))))

    def h_derivative(self, order, delta):
        side = -1.0 if delta < 0 else 1.0
        e = math.exp(-abs(delta))
        return side * (e - 1.0) if order == 1 else -e * (-side) ** order

    def h_max(self, order, w):
        return 1.0 if order >= 2 else None  # e^(-|d|) peaks at the kink

    def log_ratio(self, us, delta):
        return np.abs(us) - np.abs(us + delta)


class LaplaceOrderFour(Laplace):
    """Laplace, declaring the fourth order that a smooth even H would have."""

    order = 4


class LaplaceNoOrder(Laplace):
    """Laplace, declaring no remainder order."""

    order = None


class ExtraFamily(Enum):
    LAPLACE = "laplace"
    LAPLACE_ORDER_FOUR = "laplace-order-four"
    LAPLACE_NO_ORDER = "laplace-no-order"


RECORDS = {**models._FAMILIES, ExtraFamily.LAPLACE: Laplace}
SIGMAS = (1.0, 0.5, 2.0)


@pytest.fixture(scope="module")
def extra_families():
    """The test-only records, registered in ``models._FAMILIES`` while this module runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(models._FAMILIES, ExtraFamily.LAPLACE, Laplace)
        patch.setitem(models._FAMILIES, ExtraFamily.LAPLACE_ORDER_FOUR, LaplaceOrderFour)
        patch.setitem(models._FAMILIES, ExtraFamily.LAPLACE_NO_ORDER, LaplaceNoOrder)
        yield


@pytest.fixture(scope="module")
def model(request, extra_families):
    return ModelSpec(*request.param)


def records(applies=lambda family: True, sigmas=SIGMAS):
    """Parametrize ``model`` over every (record, sigma) whose family ``applies``."""
    cases = []
    for key, record in RECORDS.items():
        for sigma in sigmas:
            try:
                family = record(sigma)
            except InputError:
                continue
            if applies(family):
                name = key.value if sigma == 1.0 else f"{key.value}-{sigma:g}"
                cases.append(pytest.param((key, sigma), id=name))
    return pytest.mark.parametrize("model", cases, indirect=True)


def has_h(family):
    return family.h is not None


LEAKS = {
    "test_closed_h_matches_quadrature_across_the_span[laplace]": "the kinks of the H integrand "
    "at u = 0 and -delta are not given to the integrator: H is off by 2.0e-4 at delta = 0.0202, "
    "3.6e-6 at 1.245",
    "test_h_keeps_its_sign_at_tiny_shifts[laplace]": "the same kinks: quadrature H(1e-6) is "
    "+4.0e-25, the closed H -5.0e-13",
    "test_h_derivative_matches_finite_differences[laplace]": "the stencils difference that "
    "quadrature H: order 2 is off by 1.0e-4 at delta = 0.984, order 4 by 0.022 at -0.259",
    "test_fisher_curvature_form[laplace]": "the second difference of ln p = -|x - xi| is 0 off "
    "the kink: the curvature form reads -2.0e-8 for F = 1",
    "test_fisher_is_minus_quadrature_h_curvature[laplace]": "h_derivative_numeric(2, 0) "
    "differences the quadrature H at +-1e-4, which misses the kink, and reads 0.0 for -1",
    "test_declared_order_matches_the_quadrature_h[laplace]": "a central stencil and mirror "
    "probes see an even H as smooth: the stencil's H'''(0) is 7.2e-14 and H(-p) - H(p) is at "
    "most 4.2e-17, so the measurement gives 4 for the remainder |d|^3 / 6",
}


@pytest.fixture(autouse=True)
def known_leak(request):
    reason = LEAKS.get(request.node.name)
    if reason:
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason))


def _prim(v):
    return (v + 0.5 * np.sin(2.0 * v)) / math.pi


_erfc = np.vectorize(math.erfc)

# record: (ln p(u | 0) in mpmath, the H integral's ends and breakpoints in u,
# P(X <= x | xi) on arrays); ``mp`` is the mpmath module, ``f`` the record.
DEFINITIONS = {
    _Chi2Log: (
        lambda mp, f, u: u - mp.exp(u),
        lambda mp, f, d: [-110, -60, -30, -10, 0, 2, 5],
        lambda f, x, xi: -np.expm1(-np.exp(x - xi)),
    ),
    _Gauss: (
        lambda mp, f, u: -mp.log(2 * mp.pi * f.sigma**2) / 2 - u**2 / (2 * f.sigma**2),
        lambda mp, f, d: [k * f.sigma for k in (-14, -7, 0, 7, 14)],
        lambda f, x, xi: 0.5 * _erfc((xi - x) / (f.sigma * math.sqrt(2.0))),
    ),
    _Trig: (
        lambda mp, f, u: mp.log(2 / mp.pi) + 2 * mp.log(abs(mp.cos(u))),
        # ln p(u + d) diverges where u + d = +-pi/2
        lambda mp, f, d: sorted([-mp.pi / 2, mp.pi / 2, math.copysign(1, d) * mp.pi / 2 - d]),
        lambda f, x, xi: _prim(x - xi) - _prim(-math.pi / 2.0 - xi),
    ),
    _Binom: (None, None, lambda f, x, xi: np.where(x < 1.0, np.sin(xi) ** 2, 1.0)),
    Laplace: (
        lambda mp, f, u: -abs(u) - mp.log(2),
        lambda mp, f, d: sorted([-120, 0, -d, 120]),
        lambda f, x, xi: np.where(x < xi, 0.5 * np.exp(x - xi), 1.0 - 0.5 * np.exp(xi - x)),
    ),
}


def _span(family, line: float, periodic: float) -> float:
    """Half-width of a range of shifts: ``line`` scales, or that share of the period."""
    return periodic * family.period if family.period is not None else line * family.scale


@records()
def test_normalization(model):
    lo, hi = model.xi_domain
    probes = np.linspace(-8.0, 8.0, 20) if math.isinf(lo) else np.linspace(lo, hi, 20)
    for xi in probes:
        assert abs(normalization_check(model, float(xi)) - 1.0) <= 1e-7, xi


@records(has_h)
def test_log_density_matches_its_definition(model):
    mp = pytest.importorskip("mpmath")
    family = model._family
    log_density = DEFINITIONS[type(family)][0]
    rng = np.random.default_rng(4)
    x, xi = (rng.uniform(-1.5, 1.5, 50) * family.scale for _ in range(2))
    with mp.workdps(40):
        want = [float(log_density(mp, family, mp.mpf(a) - mp.mpf(b))) for a, b in zip(x, xi)]
    np.testing.assert_allclose(family.log_density(x, xi), want, rtol=1e-13, atol=1e-13)


@records(lambda family: family.support is None)
def test_translation(model):
    # p(x + a | xi + a) = p(x | xi); one ulp of x - xi moves the density by
    # about |d ln p / du| eps, and near a density zero only an absolute
    # floor holds.  Recentring on xi = 0 forms the same x - xi, bit for bit.
    family = model._family
    rng = np.random.default_rng(3)
    x, xi, a = (np.append([-r, 0.0, r], rng.uniform(-r, r, 200)) * family.scale for r in (3, 3, 5))
    p = family.density(x, xi)
    floor = 1e-300 if family.zeros is None else 1e-12
    np.testing.assert_allclose(family.density(x + a, xi + a), p, rtol=1e-12, atol=floor)
    np.testing.assert_array_equal(family.density(x - xi, 0.0), p)


@records(has_h)
def test_closed_h_matches_quadrature(model):
    family = model._family
    for d in (0.5 * family.scale, -1.3 * family.scale):
        assert abs(h_functional(model, d).value - family.h(d)) <= 1e-7, d


@records(has_h)
def test_closed_h_matches_quadrature_across_the_span(model):
    family = model._family
    span = _span(family, 3.0, 0.48)
    for d in np.random.default_rng(5).uniform(-span, span, 50):
        assert abs(h_functional(model, float(d)).value - family.h(float(d))) <= 1e-7, d


@records(has_h)
def test_h_is_nonpositive_with_unique_maximum(model):
    span = _span(model._family, 3.0, 0.48)
    for d in np.linspace(-span, span, 101):
        ev = h_functional(model, float(d))
        if d == 0.0:
            assert (ev.value, ev.error_estimate) == (0.0, 0.0)
        else:
            assert ev.value < 0.0, d


@records(has_h)
def test_h_keeps_its_sign_at_tiny_shifts(model):
    # H ~ -F d^2 / 2 lies far below the default quadrature tolerance here;
    # at +-1e-6 the quadrature H is also within 0.1 % of the closed H.
    family = model._family
    for d in (1e-5, -1e-5, 1e-6, -1e-6, 1e-8, -1e-8):
        d *= family.scale
        value = h_functional(model, d).value
        assert value < 0.0, d
        if abs(d) == 1e-6 * family.scale:
            assert value == pytest.approx(family.h(d), rel=1e-3), d


@records(has_h)
def test_closed_h_matches_mpmath(model):
    mp = pytest.importorskip("mpmath")
    family = model._family
    log_density, points, _ = DEFINITIONS[type(family)]
    # Gauss-Legendre converges fastest on smooth pieces; tanh-sinh takes the
    # log singularities that density zeros put at the ends of pieces.
    method = "gauss-legendre" if family.zeros is None else "tanh-sinh"
    with mp.workdps(40):
        for d in (1e-6 * family.scale, 0.5 * family.scale, -1.3 * family.scale):

            def integrand(u):
                at_u = log_density(mp, family, u)
                return mp.exp(at_u) * (log_density(mp, family, u + d) - at_u)

            exact = mp.quad(integrand, points(mp, family, d), method=method)
            assert family.h(d) == pytest.approx(float(exact), rel=1e-14, abs=1e-16), d


@records(has_h)
def test_h_derivative_matches_finite_differences(model):
    # The stencils reach 2e-2 at most, so none crosses delta = 0, where H may
    # have a kink.
    family = model._family
    span = _span(family, 2.0, 0.45)
    rng = np.random.default_rng(8)
    for _ in range(7):
        d = float(rng.uniform(0.05 * family.scale, span) * rng.choice([-1.0, 1.0]))
        for order, tol in ((1, 1e-5), (2, 1e-5), (3, 1e-3), (4, 1e-3)):
            got = h_derivative_numeric(model, order, d)
            assert got == pytest.approx(family.h_derivative(order, d), abs=tol), (order, d)


@records()
def test_h_max_matches_a_dense_scan(model):
    carrier = model._family.carrier
    order = detect_remainder_order(model)
    for w in (3.0 / math.sqrt(160.0), 0.5, 1.0, 3.0):
        w *= carrier.scale
        scan = max(abs(carrier.h_derivative(order, d)) for d in np.linspace(-w, w, 10001))
        assert max_abs_derivative(model, order, w) == pytest.approx(scan, rel=1e-15), w


@records()
def test_fisher_gradient_form(model):
    # F = -H''(0), and the gradient form gives F at every probe point.
    f = model.analytic_fisher
    assert -model._family.carrier.h_derivative(2, 0.0) == pytest.approx(f, rel=1e-15)
    for xi in default_probe_points(model):
        assert abs(fisher_gradient_form(model, float(xi)) - f) <= 5e-6, xi


@records()
def test_fisher_curvature_form(model):
    probes = default_probe_points(model)
    for xi in (probes[0], probes[-1]):
        assert abs(fisher_curvature_form(model, float(xi)) - model.analytic_fisher) <= 1e-5, xi


@records()
def test_fisher_is_minus_quadrature_h_curvature(model):
    curvature = -h_derivative_numeric(model, 2, 0.0)
    assert curvature == pytest.approx(model.analytic_fisher, abs=1e-4)
    xi = float(default_probe_points(model)[0])
    assert curvature == pytest.approx(fisher_gradient_form(model, xi), abs=1e-4)


@records()
def test_log_lik_is_the_sum_of_log_densities_up_to_a_constant(model):
    family = model._family
    xs = sample(model, 0.3 * family.scale, 50, 12).as_array()
    lo, hi = model.xi_domain
    if family.period is None:
        lo, hi = xs.min() - 5.0 * family.scale, xs.max() + 5.0 * family.scale
    grid = lo + (hi - lo) * (np.arange(400) + 0.5) / 400  # off the ends and 0
    total = np.sum(family.log_density(xs[:, None], grid), axis=0)
    gap = family.log_lik(xs, grid) - total
    assert np.ptp(gap) <= 1e-11 * (1.0 + np.max(np.abs(total)))


@records()
def test_ml_maximizes_log_lik(model):
    # Neither a 1e-3 grid over the range nor a 1e-6 grid about the estimate
    # beats it beyond rounding, and the 1e-6 grid's maximum lies within one
    # step of it (a flat top, as Laplace has at even N, counts as a whole).
    family = model._family
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(1, 51))
        xi = float(rng.uniform(-0.8, 0.8)) * family.scale
        obs = sample(model, xi, n, int(rng.integers(1 << 30)))
        xs, got = obs.as_array(), ml_estimate(model, obs)
        lo, hi = model.xi_domain
        if family.period is None:
            lo, hi = xs.min() - family.scale, xs.max() + family.scale
        coarse = family.log_lik(xs, np.linspace(lo, hi, int((hi - lo) / 1e-3) + 1))
        fine = got + 1e-6 * np.arange(-2000, 2001)
        values = family.log_lik(xs, fine)
        top = np.max(values)
        tol = 1e-12 * (1.0 + abs(top))
        assert np.max(coarse) <= top + tol, (n, got)
        near = fine[values >= top - tol]
        assert np.min(np.abs(near - got)) <= 1e-6 * (1.0 + 1e-9), (n, got)


@records()
def test_sampler_matches_its_cdf(model):
    # Kolmogorov-Smirnov distance to the closed CDF; 0.05 is a ~6 sigma band
    # at N = 2000.  Tied draws (binom) count at the top of their step.
    family = model._family
    cdf = DEFINITIONS[type(family)][2]
    for xi, seed in ((-0.7 * family.scale, 22), (0.4 * family.scale, 21)):
        xs = np.sort(sample(model, xi, 2000, seed).as_array())
        emp = np.searchsorted(xs, xs, side="right") / xs.size
        assert np.max(np.abs(cdf(family, xs, xi) - emp)) < 0.05, xi


@records(lambda family: family.period is not None)
@settings(max_examples=25, deadline=None)
@given(t=st.floats(-math.pi / 2.0, math.pi / 2.0), n=st.integers(1, 200), seed=st.integers(0, 2**20))
def test_periodic_posterior_is_invariant_under_the_period(model, t, n, seed):
    period = model._family.period
    obs = sample(model, 0.3, n, seed)
    a = posterior_from_observations(model, obs, xi_ml=t)
    b = posterior_from_observations(model, obs, xi_ml=t + period)
    np.testing.assert_allclose(b.xi_values - period, a.xi_values, rtol=0, atol=1e-12)
    assert np.max(np.abs(a.densities - b.densities)) <= 1e-9 * np.max(a.densities)


def _quadrature_order(model) -> int:
    """The remainder order measured on the quadrature H: 3 when an
    extrapolated stencil gives |H'''(0)| > 1e-4 F^(3/2), or when H(-p) and
    H(p) differ by more than 1e-8 at p = 0.2, 0.45 or 0.7 scales; else 4."""
    f, scale = model.analytic_fisher, model._family.scale
    if abs(h_derivative_numeric(model, 3, 0.0)) > 1e-4 * f**1.5:
        return 3
    for p in (0.2, 0.45, 0.7):
        if abs(h_functional(model, -p * scale).value - h_functional(model, p * scale).value) > 1e-8:
            return 3
    return 4


@records(sigmas=SIGMAS + (1e-20, 1e20))
def test_declared_order_matches_the_quadrature_h(model):
    assert detect_remainder_order(model) == _quadrature_order(model)


def _realised_sup(model, n: int) -> float:
    """sup of N |H(d) + F d^2 / 2| over the 3-sigma window |d| <= 3 / sqrt(N F)."""
    f = model.analytic_fisher
    h = model._family.carrier.h
    w = 3.0 / math.sqrt(n * f)
    return max(n * abs(h(d) + 0.5 * f * d * d) for d in np.linspace(-w, w, 20001))


@records()
def test_remainder_bound_holds_at_minimal_n(model):
    # The remainder stays within r(N) times the quadratic term, 4.5 nats at
    # the window's edge.  Measured: chi2log N = 160, 0.3779 <= 0.4510; trig
    # and binom N = 8, 0.4064 <= 0.4219; laplace N = 100, 0.418 <= 0.450;
    # gauss 0, to rounding (4.4e-16 at N = 1).
    n = minimal_n(model, 0.1)
    assert _realised_sup(model, n) <= 4.5 * remainder_ratio(model, n) + 1e-12


def test_laplace_declaring_order_four_fails_the_bound_row(extra_families):
    # Declared 3, Laplace's minimal N at 0.1 is 100, where the bound holds.
    # Declared 4, as its even H would suggest, it is 8, where the realised
    # sup 1.245 breaks the bound 0.422, and the bound row catches it.
    right = ModelSpec(ExtraFamily.LAPLACE)
    assert (detect_remainder_order(right), minimal_n(right)) == (3, 100)
    wrong = ModelSpec(ExtraFamily.LAPLACE_ORDER_FOUR)
    assert (detect_remainder_order(wrong), minimal_n(wrong)) == (4, 8)
    assert _realised_sup(wrong, 8) == pytest.approx(1.245, abs=1e-3)
    assert 4.5 * remainder_ratio(wrong, 8) == pytest.approx(0.422, abs=1e-3)
    with pytest.raises(AssertionError):
        test_remainder_bound_holds_at_minimal_n(wrong)


def test_a_record_without_an_order_is_refused_by_name(extra_families):
    # A missing declaration once surfaced as a bare TypeError from h_max.
    model = ModelSpec(ExtraFamily.LAPLACE_NO_ORDER)
    for call in (lambda: minimal_n(model), lambda: criterion_report(model, 8)):
        with pytest.raises(UnsupportedModelError, match="laplace-no-order declares no remainder order"):
            call()

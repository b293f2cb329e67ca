import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussn import quadrature
from gaussn.errors import InputError, QuadratureError
from gaussn.quadrature import (
    QuadratureConfig,
    integrate,
    integrate_with_log_singularity,
)

HALF_PI = math.pi / 2.0


def _rule_arrays():
    # The rule's arrays are built on the first integration; build them here.
    quadrature._build_rule()
    return quadrature._NODES, quadrature._WK, quadrature._WG


def test_panel_rule_polynomial_exactness():
    # The embedded pair is exact through degree 13 (Gauss-7) and 22
    # (Kronrod-15); a typo in the tabulated nodes or weights would break
    # this at machine precision.
    _NODES, _WK, _WG = _rule_arrays()

    assert np.sum(_WK) == pytest.approx(2.0, abs=1e-13)
    assert np.sum(_WG) == pytest.approx(2.0, abs=1e-13)
    np.testing.assert_allclose(_NODES, -_NODES[::-1], atol=0)
    for k in range(0, 23, 2):
        exact = 2.0 / (k + 1)
        assert float(_WK @ _NODES**k) == pytest.approx(exact, abs=5e-14), k
        if k <= 13:
            assert float(_WG @ _NODES**k) == pytest.approx(exact, abs=5e-14), k
    assert abs(float(_WG @ _NODES**14) - 2.0 / 15.0) > 1e-5  # Gauss-7 limit


def test_rule_arrays_keep_the_bits_of_the_former_module_constants():
    # The arrays are built on the first integration, no longer at import;
    # built the way the module once built them, from the same literals,
    # they must come out bit for bit the same.
    xgk_half = np.array([
        0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
        0.586087235467691, 0.405845151377397, 0.207784955007898,
    ])
    wgk_half = np.array([
        0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
        0.169004726639267, 0.190350578064785, 0.204432940075298,
    ])
    wg_half = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119])
    nodes = np.concatenate([-xgk_half, [0.0], xgk_half[::-1]])
    wk = np.concatenate([wgk_half, [0.209482141084728], wgk_half[::-1]])
    wg = np.zeros(15)
    wg[[1, 3, 5]] = wg_half
    wg[7] = 0.417959183673469
    wg[[9, 11, 13]] = wg_half[::-1]
    _NODES, _WK, _WG = _rule_arrays()
    for got, want in ((_NODES, nodes), (_WK, wk), (_WG, wg)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert quadrature._EPS == np.finfo(float).eps


def _reference_rule(y, a, b):
    """The panel rule with its sums written as ``@`` products, kept to pin ``_rule``'s bits."""
    _, wk, wg = _rule_arrays()
    h = 0.5 * (b - a)
    s = float(wk @ y)
    if not math.isfinite(s) and not np.all(np.isfinite(y)):
        raise QuadratureError(f"integrand not finite inside panel [{a!r}, {b!r}]")
    k = h * s
    g = h * float(wg @ y)
    err = abs(k - g)
    resabs = h * float(wk @ np.abs(y))
    resasc = h * float(wk @ np.abs(y - k / (b - a)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * np.finfo(float).eps * resabs)
    return k, err


def _outcome(rule, y, a, b):
    """The bits of ``rule``'s (value, error), or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            k, err = rule(y, a, b)
    except (ArithmeticError, QuadratureError) as exc:
        return type(exc)
    return struct.pack("<dd", k, err)


_MAGNITUDE = st.floats(min_value=1e-300, max_value=1e300)
_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(operator.mul, st.sampled_from([1.0, -1.0]), _MAGNITUDE),
)
# Values of one scale, so that no single term swamps the sums.
_SCALED_PANEL = st.builds(
    lambda scale, unit: [scale * u for u in unit],
    _MAGNITUDE,
    st.lists(st.floats(-1.0, 1.0), min_size=15, max_size=15),
)
# Nearly flat values, where the roundoff floor on the error binds.
_FLAT_PANEL = st.builds(
    lambda level, ripple: [level * (1.0 + e) for e in ripple],
    _VALUE,
    st.lists(st.floats(-1e-12, 1e-12), min_size=15, max_size=15),
)
_PANEL = st.one_of(st.lists(_VALUE, min_size=15, max_size=15), _SCALED_PANEL, _FLAT_PANEL)
_WIDTH = st.floats(min_value=1e-300, max_value=1e3)


@settings(max_examples=500, deadline=None)
@given(y=_PANEL, a=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), width=_WIDTH)
def test_rule_keeps_the_bits_of_the_matmul_panel_sums(y, a, width):
    _rule_arrays()
    y = np.array(y)
    assert _outcome(quadrature._rule, y, a, a + width) == _outcome(_reference_rule, y, a, a + width)


def test_cos_squared_over_one_period():
    res = integrate(lambda s: np.cos(s) ** 2, (-HALF_PI, HALF_PI))
    assert res.value == pytest.approx(HALF_PI, abs=1e-12)
    assert res.error_estimate <= 1e-10


def test_gamma_two_via_exponential_integral():
    # Gamma(z) = int exp(z t - e^t) dt over the line; Gamma(2) = 1! = 1.
    res = integrate(lambda t: np.exp(2.0 * t - np.exp(t)), (-math.inf, math.inf))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_log_cos_integral():
    res = integrate_with_log_singularity(
        lambda s: np.log(np.cos(s)), (0.0, HALF_PI), [HALF_PI]
    )
    assert res.value == pytest.approx(-(HALF_PI) * math.log(2.0), abs=1e-8)


def test_sin_squared_log_cos_integral():
    res = integrate_with_log_singularity(
        lambda s: np.sin(s) ** 2 * np.log(np.cos(s)), (0.0, HALF_PI), [HALF_PI]
    )
    assert res.value == pytest.approx(-(math.pi / 8.0) * (2.0 * math.log(2.0) + 1.0), abs=1e-8)


def test_log_integral_combination_quarter_pi():
    # int ln cos - 2 int sin^2 ln cos = pi/4
    i0 = integrate_with_log_singularity(
        lambda s: np.log(np.cos(s)), (0.0, HALF_PI), [HALF_PI]
    ).value
    i2 = integrate_with_log_singularity(
        lambda s: np.sin(s) ** 2 * np.log(np.cos(s)), (0.0, HALF_PI), [HALF_PI]
    ).value
    assert i0 - 2.0 * i2 == pytest.approx(math.pi / 4.0, abs=1e-8)


def test_log_x_endpoint_singularity():
    res = integrate_with_log_singularity(lambda x: np.log(np.abs(x)), (0.0, 1.0), [0.0])
    assert res.value == pytest.approx(-1.0, abs=1e-9)  # antiderivative x ln x - x


def test_shifted_cos_log_integrand():
    # int_{-pi/2}^{pi/2} cos^2(s) ln cos^2(s - pi/4) ds = -pi ln 2:
    # the weighted log-ratio integral equals -pi/2 there, and
    # int cos^2 ln cos^2 = 4 (I0 - I2) = -pi ln 2 + pi/2.
    f = lambda s: np.cos(s) ** 2 * np.log(np.cos(s - math.pi / 4.0) ** 2)
    res = integrate_with_log_singularity(f, (-HALF_PI, HALF_PI), [math.pi / 4.0 - HALF_PI])
    assert res.value == pytest.approx(-math.pi * math.log(2.0), abs=1e-8)
    assert res.error_estimate < 1e-7


def test_error_estimate_honors_tolerance_contract():
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    res = integrate(lambda x: np.exp(-(x**2)), (-math.inf, math.inf), cfg)
    assert res.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
    assert res.value == pytest.approx(math.sqrt(math.pi), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    alpha=st.floats(-2, 2),
    beta=st.floats(-2, 2),
)
def test_linearity(coeffs, alpha, beta):
    a0, a1, a2 = coeffs

    def f(x):
        return a0 + a1 * x + a2 * x**2

    def g(x):
        return np.cos(x)

    combined = integrate(lambda x: alpha * f(x) + beta * g(x), (-1.0, 2.0)).value
    separate = alpha * integrate(f, (-1.0, 2.0)).value + beta * integrate(g, (-1.0, 2.0)).value
    assert combined == pytest.approx(separate, abs=1e-9)


def test_translation_invariance_on_the_line():
    rng = np.random.default_rng(3)
    base = integrate(lambda x: np.exp(-0.5 * x**2), (-math.inf, math.inf)).value
    for a in rng.uniform(-5.0, 5.0, size=8):
        shifted = integrate(lambda x: np.exp(-0.5 * (x - a) ** 2), (-math.inf, math.inf)).value
        assert shifted == pytest.approx(base, abs=1e-9)


def test_truncation_rejects_heavy_tail():
    with pytest.raises(QuadratureError, match="truncation"):
        integrate(lambda x: np.ones_like(x) / (1.0 + x**2), (-math.inf, math.inf))


def test_subdivision_limit_carries_best_estimate():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: np.exp(np.sin(7.0 * x)) * np.cos(13.0 * x), (0.0, 6.0), cfg)
    assert exc.value.value is not None
    assert exc.value.error_estimate > 0


def test_interval_validation():
    with pytest.raises(InputError):
        integrate(lambda x: x, (1.0, 0.0))
    assert integrate(lambda x: x, (2.0, 2.0)).value == 0.0
    with pytest.raises(InputError):
        integrate_with_log_singularity(lambda x: x, (0.0, math.inf), [1.0])
    with pytest.raises(InputError) as exc:
        integrate(lambda x: x, (math.nan, 1.0))
    assert str(exc.value) == "integration limits must not be NaN"


def test_config_validation():
    with pytest.raises(InputError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(InputError):
        QuadratureConfig(tail_cutoff=5.0)
    with pytest.raises(InputError):
        QuadratureConfig(max_subdivisions=0)


_LIMIT_MESSAGE = "max_subdivisions must be a strictly positive integer"


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("abs_tol", math.inf, "abs_tol must be strictly positive and finite, got inf"),
        ("rel_tol", math.inf, "rel_tol must be strictly positive and finite, got inf"),
        ("tail_cutoff", math.inf, "tail_cutoff must be strictly positive and finite, got inf"),
        ("abs_tol", math.nan, "abs_tol must be strictly positive and finite, got nan"),
        ("max_subdivisions", 2.5, f"{_LIMIT_MESSAGE}, got 2.5"),
        ("max_subdivisions", True, f"{_LIMIT_MESSAGE}, got True"),
    ],
)
def test_config_rejects_values_it_cannot_honour(field, value, message):
    # An infinite tolerance accepted any estimate (the Gaussian integral came
    # out as 8.379 +- 15), an infinite cutoff failed inside the first panel,
    # and a fractional limit was reported as "within 2.5 subdivisions".
    with pytest.raises(InputError) as exc:
        QuadratureConfig(**{field: value})
    assert str(exc.value) == message


def test_config_accepts_numpy_integer_limits():
    assert QuadratureConfig(max_subdivisions=np.int64(7)).max_subdivisions == 7


def test_deterministic_results():
    f = lambda s: np.cos(s) ** 2 * np.log(np.cos(s - 0.9) ** 2)
    pts = [0.9 - HALF_PI]
    r1 = integrate_with_log_singularity(f, (-HALF_PI, HALF_PI), pts)
    r2 = integrate_with_log_singularity(f, (-HALF_PI, HALF_PI), pts)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate


class _Counted:
    """Integrand wrapper that records the size of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, xs):
        self.sizes.append(len(xs))
        return self.f(xs)


def test_split_evaluates_both_halves_in_one_call():
    f = _Counted(lambda x: np.exp(np.sin(7.0 * x)) * np.cos(13.0 * x))
    res = integrate(f, (0.0, 6.0))
    assert res.subdivisions_used > 10
    assert len(f.sizes) == 1 + res.subdivisions_used
    assert f.sizes == [15] + [30] * res.subdivisions_used


def _first_panel_abscissae(a, b):
    nodes, _, _ = _rule_arrays()
    return 0.5 * (a + b) + 0.5 * (b - a) * nodes


def _poisoned(base, points, values):
    def f(x):
        y = base(x)
        for p, v in zip(points, values):
            y = np.where(x == p, v, y)
        return y

    return f


def test_inf_value_raises_naming_the_panel():
    xs = _first_panel_abscissae(0.0, 2.0)
    f = _poisoned(np.cos, [xs[3]], [np.inf])
    with pytest.raises(QuadratureError, match=r"inside panel \[0\.0, 2\.0\]"):
        integrate(f, (0.0, 2.0))


def test_inf_in_right_half_of_a_split_names_that_half():
    # sqrt needs splits; the first split of [0, 2] evaluates [0, 1] and
    # [1, 2] together, and the error must name the half that holds the inf.
    xs = _first_panel_abscissae(1.0, 2.0)
    f = _poisoned(np.sqrt, [xs[5]], [np.inf])
    with pytest.raises(QuadratureError, match=r"inside panel \[1\.0, 2\.0\]"):
        integrate(f, (0.0, 2.0))


def test_opposite_infinities_in_one_panel_raise():
    # +inf and -inf make the Kronrod sum NaN rather than infinite.
    xs = _first_panel_abscissae(0.0, 2.0)
    f = _poisoned(np.cos, [xs[2], xs[9]], [np.inf, -np.inf])
    with pytest.raises(QuadratureError, match="not finite"), np.errstate(invalid="ignore"):
        integrate(f, (0.0, 2.0))


def test_nan_value_raises():
    xs = _first_panel_abscissae(0.0, 2.0)
    f = _poisoned(np.cos, [xs[7]], [np.nan])
    with pytest.raises(QuadratureError, match="not finite"):
        integrate(f, (0.0, 2.0))


def test_finite_values_whose_sum_overflows_do_not_raise():
    with np.errstate(over="ignore"):
        res = integrate(lambda x: np.full_like(x, 1e308), (0.0, 4.0))
    assert res.value == math.inf
    assert res.subdivisions_used == 0


@pytest.mark.parametrize(
    "bad",
    [lambda x: 1.0, lambda x: np.ones(len(x) + 1), lambda x: np.ones((len(x), 1))],
    ids=["scalar", "too_long", "column"],
)
def test_wrong_shape_raises_input_error(bad):
    with pytest.raises(InputError, match="integrand must map"):
        integrate(bad, (0.0, 1.0))
    with pytest.raises(InputError, match="integrand must map"):
        integrate_with_log_singularity(bad, (-1.0, 1.0), [0.0])


def _log_shift_integral(c):
    """The integral of ln|x - c| over (-1, 1), for |c| < 1."""
    return (1.0 - c) * math.log1p(-c) + (1.0 + c) * math.log1p(c) - 2.0


@pytest.mark.parametrize(
    "f,interval,points,exact,tol",
    [
        (lambda x: np.abs(x - 0.3), (-1.0, 1.0), [0.3], 1.09, 1e-12),
        (lambda x: 1.0 / np.sqrt(np.abs(x)), (-1.0, 1.0), [0.0], 4.0, 1e-10),
        (
            lambda x: np.log(np.abs(x)) + np.log(np.abs(x - 2e-8)),
            (-1.0, 1.0),
            [0.0, 2e-8],
            _log_shift_integral(0.0) + _log_shift_integral(2e-8),
            1e-10,
        ),
        (lambda x: np.log(1.0 - x), (0.0, 1.0), [1.0], -1.0, 1e-12),
        (
            lambda x: np.log(np.abs(x - 1e-7)),
            (0.0, 2e-7),
            [1e-7],
            2.0 * (1e-7 * math.log(1e-7) - 1e-7),
            1e-12,
        ),
    ],
    ids=["kink", "inverse_sqrt", "points_2e-8_apart", "point_on_an_end", "interval_2e-7_wide"],
)
def test_singular_integral_matches_closed_form(f, interval, points, exact, tol):
    res = integrate_with_log_singularity(f, interval, points)
    assert abs(res.value - exact) <= tol
    assert res.error_estimate <= 1e-9


def _mapped_first_panel_abscissae(lo, hi):
    """The x of the first panel of the piece (lo, hi) under its cubic map."""
    s = _first_panel_abscissae(-1.0, 1.0)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * s * (3.0 - s * s) / 2.0


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_value_at_an_interior_abscissa_raises(value):
    # ln|x| is finite at every abscissa of the piece (0, 1); one is poisoned.
    xs = _mapped_first_panel_abscissae(0.0, 1.0)
    f = _poisoned(lambda x: np.log(np.abs(x)), [xs[4]], [value])
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_with_log_singularity(f, (-1.0, 1.0), [0.0])


def _poisoned_near_zero(base, point, value):
    """``base`` with ``value`` at every x strictly between 0 and ``point``, ``point`` included."""

    def f(x):
        near = (0.0 < x) & (x <= point) if point > 0.0 else (point <= x) & (x < 0.0)
        return np.where(near, value, base(x))

    return f


@pytest.mark.parametrize("point", [2e-8, -4e-8])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_fit_probe_raises(point, value):
    # The end panels of the pieces beside the singular point 0 reach within
    # 2e-8 of it; a bad value there must raise, not be averaged away.
    f = _poisoned_near_zero(lambda x: np.log(np.abs(x)), point, value)
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_with_log_singularity(f, (-1.0, 1.0), [0.0])


@pytest.mark.parametrize("point", [1.6e-7, -1.6e-7])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_held_out_probe_raises(point, value):
    # A bad value within 1.6e-7 of the singular point must raise, not turn
    # the value or its error estimate into inf or NaN.
    f = _poisoned_near_zero(lambda x: np.log(np.abs(x)), point, value)
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_with_log_singularity(f, (-1.0, 1.0), [0.0])


def test_wrong_shape_after_a_split_raises_input_error():
    # The first panels of both pieces, 30 abscissae, are well formed; every
    # call past them is not, however the abscissae are grouped into calls.
    seen = 0

    def f(x):
        nonlocal seen
        seen += x.size
        y = np.log(np.abs(x))
        return y[:-1] if seen > 30 else y

    with pytest.raises(InputError, match="integrand must map"):
        integrate_with_log_singularity(f, (-1.0, 1.0), [0.0])
    assert seen > 30


def test_unreachable_tolerance_raises_with_a_finite_estimate():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(QuadratureError, match="tolerance not reached") as exc, np.errstate(all="raise"):
        integrate_with_log_singularity(lambda s: np.log(np.cos(s)), (0.0, HALF_PI), [HALF_PI], cfg)
    assert math.isfinite(exc.value.value)
    assert math.isfinite(exc.value.error_estimate)
    # The only point is an end of the interval, so there is one piece.
    assert "piece" not in str(exc.value)
    assert str(exc.value).count("best estimate") == 1


def test_a_failed_piece_reports_the_whole_interval_estimate():
    # trig H(0.3) is split into two pieces at a shifted zero of the density;
    # a piece that cannot reach 1e-15 must not hide the other's estimate.
    from gaussn import h_functional, make_model

    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
    with pytest.raises(QuadratureError, match="best estimate over the whole interval") as exc:
        h_functional(make_model("trig"), 0.3, cfg)
    assert abs(exc.value.value - (math.cos(0.6) - 1.0)) <= 1e-9
    assert math.isfinite(exc.value.error_estimate)
    # The message gives one estimate, the whole interval's.
    assert str(exc.value).count("best estimate") == 1
    assert repr(exc.value.value) in str(exc.value)


@pytest.mark.parametrize("delta", [5e-8, -5e-8])
def test_h_near_a_zero_beside_the_interval_end(delta):
    # The shifted zero -delta +- pi/2 lies 5e-8 inside an end of [-pi/2, pi/2].
    from gaussn import h_functional, make_model

    value = h_functional(make_model("trig"), delta).value
    assert abs(value - -2.0 * math.sin(delta) ** 2) <= 1e-15


def test_panels_at_machine_resolution_raise():
    # A step inside an interval of 64 ulps: bisection reaches one-ulp panels
    # that cannot be split, and 1e-300 is far below their roundoff floor.
    a = 1.0
    b = a + 64 * math.ulp(a)
    step = a + 29 * math.ulp(a)
    cfg = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(QuadratureError, match="all panels at machine resolution"):
        integrate(lambda x: np.where(x < step, 0.0, 1.0), (a, b), cfg)

import math
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussn import (
    AmbiguousMaximumWarning,
    InputError,
    Observations,
    density,
    fisher_curvature_form,
    fisher_gradient_form,
    log_density,
    make_model,
    ml_estimate,
    normalization_check,
    sample,
)
from gaussn.models import _Gauss, _trig_inverse_cdf, _trig_log_lik

from frozen_trig_sampler import bisect_inverse_cdf, sample_by_bisection

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_values(chi2, trig, binom):
    assert density(chi2, 0.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert density(trig, 0.0, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert density(binom, 1.0, math.pi / 3.0) == pytest.approx(0.25, abs=1e-15)
    assert density(binom, 0.0, math.pi / 3.0) == pytest.approx(0.75, abs=1e-15)


def test_density_domain_errors(trig, binom):
    with pytest.raises(InputError):
        density(trig, 2.0, 0.0)
    with pytest.raises(InputError):
        density(trig, 0.0, 2.0)
    with pytest.raises(InputError):
        density(binom, 0.5, 0.3)


def test_log_density_matches_density(chi2, gauss):
    for model, x, xi in ((chi2, 0.4, -0.3), (gauss, 1.2, 0.1)):
        assert math.exp(log_density(model, x, xi)) == pytest.approx(
            density(model, x, xi), rel=1e-14
        )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", [1e-20, 0.01, 2.0, 1e20])
def test_gauss_record_is_its_unit_record_rescaled(sigma):
    # The sigma record serves sampling, ML, the posterior grid and the
    # criterion; the numeric routes integrate its unit record instead, which
    # is exact only if p_sigma(x | xi) = p_1((x - xi) / sigma | 0) / sigma.
    record = _Gauss(sigma)
    unit = record.unit
    assert (unit.sigma, unit.scale, unit.unit) == (1.0, 1.0, unit)
    rng = np.random.default_rng(6)
    x, xi = (rng.uniform(-3.0, 3.0, 50) * sigma for _ in range(2))
    want = unit.log_density((x - xi) / sigma, 0.0) - math.log(sigma)
    np.testing.assert_allclose(record.log_density(x, xi), want, rtol=1e-13, atol=0)


def test_normalization_examples(chi2, trig, binom):
    assert normalization_check(chi2, 0.0) == pytest.approx(1.0, abs=1e-8)
    assert normalization_check(trig, 0.7) == pytest.approx(1.0, abs=1e-10)
    assert normalization_check(binom, 0.3) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


def _oracle_argmax(loglik, lo, hi):
    """Two-stage dense grid maximization, 1e-3 then 1e-6 steps."""
    coarse = np.linspace(lo, hi, max(int((hi - lo) / 1e-3), 10) + 1)
    best = coarse[np.argmax(loglik(coarse))]
    flo, fhi = max(best - 2e-3, lo), min(best + 2e-3, hi)
    fine = np.linspace(flo, fhi, int((fhi - flo) / 1e-6) + 2)
    return fine[np.argmax(loglik(fine))]


def test_ml_estimate_examples(chi2, binom):
    assert ml_estimate(chi2, Observations((1.7,))) == pytest.approx(1.7, abs=1e-12)
    # ln((e^0 + e^(ln 3))/2) = ln 2, confirmed by the dense-grid oracle
    obs = Observations((0.0, math.log(3.0)))
    got = ml_estimate(chi2, obs)
    assert got == pytest.approx(math.log(2.0), abs=1e-12)
    xs = obs.as_array()[:, None]
    oracle = _oracle_argmax(lambda g: np.sum((xs - g) - np.exp(xs - g), axis=0), -5.0, 5.0)
    assert got == pytest.approx(oracle, abs=1e-5)
    assert ml_estimate(binom, Observations((1.0,) * 6)) == 0.0


@settings(max_examples=30, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_binomial_score_identity(bits):
    binom = make_model("binom")
    obs = Observations(tuple(float(b) for b in bits))
    xi = ml_estimate(binom, obs)
    assert xi >= 0.0
    assert math.cos(xi) ** 2 == pytest.approx(sum(bits) / len(bits), abs=1e-12)


def test_trig_ambiguous_maximum_returns_smallest(trig):
    # cos^2 is pi-periodic, so a single observation at pi/2 is matched
    # equally well by -pi/2.
    with pytest.warns(AmbiguousMaximumWarning):
        got = ml_estimate(trig, Observations((HALF_PI,)))
    assert got == pytest.approx(-HALF_PI, abs=1e-6)


def test_trig_single_maximum_is_not_split(trig):
    # Neighbouring grid points refine to one maximum, which must count once
    # even when the two refinements differ in the ninth decimal.
    obs = sample(trig, 0.3, 500, 300038)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmbiguousMaximumWarning)
        got = ml_estimate(trig, obs)
    assert got == pytest.approx(0.3043418478, abs=1e-9)


def test_trig_estimate_zeroes_the_score(trig):
    # d/dxi sum ln cos^2(x_k - xi) = 2 sum tan(x_k - xi)
    for xi, n, seed in ((0.3, 8, 1), (-1.2, 50, 2), (0.3, 500, 300038), (1.4, 2000, 4)):
        obs = sample(trig, xi, n, seed)
        score = 2.0 * np.sum(np.tan(obs.as_array() - ml_estimate(trig, obs)))
        assert abs(score) <= 1e-8 * n


def test_trig_estimate_is_unchanged_by_the_kernel(trig):
    # Reference values of the elementwise cos/log scan, bit for bit, on the
    # draws of the bisection sampler: the scan only picks candidates, and
    # the exact sum ranks them.
    for xi, n, seed, want in (
        (0.3, 8, 1, 0.4551696723366413),
        (1.5, 50, 2, 1.495015997935771),
        (-1.2, 500, 3, -1.1835792667796337),
        (0.3, 500, 300038, 0.30434184776606465),
        (1.4, 3000, 4, 1.4129425139997294),
        (1.55, 50, 3, -1.5394400123732521),
    ):
        assert ml_estimate(trig, sample_by_bisection(xi, n, seed)) == want


def _fsum_trig_log_lik(xs, grid):
    return np.array(
        [math.fsum(math.log(2.0 / math.pi * math.cos(x - g) ** 2) for x in xs) for g in grid]
    )


@pytest.mark.parametrize("n", (1, 15, 16, 17, 500))
def test_trig_kernel_matches_fsum_oracle(trig, n):
    xs = sample(trig, 0.3, n, 40 + n).as_array()
    grid = np.linspace(-HALF_PI, HALF_PI, 81)
    assert np.max(np.abs(_trig_log_lik(xs, grid) - _fsum_trig_log_lik(xs, grid))) <= 1e-9


def test_trig_kernel_near_poles(trig):
    # Observations within 1e-12 of a pole x - xi = +-pi/2 of some grid
    # point, where angle addition alone would lose every digit of cos.
    grid = np.linspace(-1.0, 1.0, 41)
    poles = [grid[5] + HALF_PI, grid[30] - HALF_PI, grid[15] + HALF_PI, grid[28] - HALF_PI]
    xs = np.concatenate(
        [[p + d for p in poles for d in (-1e-12, 0.0, 3e-13)], sample(trig, 0.1, 40, 6).as_array()]
    )
    assert np.all(np.abs(xs) <= HALF_PI)
    got = _trig_log_lik(xs, grid)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - _fsum_trig_log_lik(xs, grid))) <= 1e-9


def test_observations_validation(chi2, binom):
    with pytest.raises(InputError):
        Observations(())
    with pytest.raises(InputError):
        ml_estimate(binom, Observations((0.5,)))
    for call in (
        lambda: ml_estimate(chi2, Observations((0.1, math.nan))),
        lambda: ml_estimate(chi2, Observations((math.inf, 0.1))),
        lambda: density(chi2, math.nan, 0.0),
    ):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == "observations must be finite"


def test_observations_hold_one_read_only_array(trig):
    obs = sample(trig, 0.3, 50, 1)
    assert all(type(v) is float for v in obs.values)
    assert obs.as_array() is obs.as_array()
    np.testing.assert_array_equal(obs.as_array(), obs.values)
    with pytest.raises(ValueError):
        obs.as_array()[0] = 0.0
    assert Observations(obs.values) == obs
    assert Observations(list(obs.values)) == obs
    assert "_array" not in repr(Observations((1.0, 2.0)))


def test_observations_values_are_built_on_first_access(trig):
    tracemalloc.start()
    try:
        obs = sample(trig, 0.3, 10**6, 5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 12e6  # the 8 MB array; the tuple of floats would add 32 MB
    twin = Observations(obs.as_array())
    assert obs == twin and hash(obs) == hash(twin) and obs.n == 10**6
    assert obs._values is None and twin._values is None
    values = obs.values
    assert type(values) is tuple and values is obs.values
    assert all(type(v) is float for v in values[:100])


def test_observations_keep_tuple_equality_and_hashing():
    assert Observations((0.0, 1.5)) == Observations((-0.0, 1.5))
    assert hash(Observations((0.0, 1.5))) == hash(Observations((-0.0, 1.5)))
    assert Observations((1.0, 2.0)) == Observations([1, 2])
    assert Observations((1.0, 2.0)) != Observations((1.0, 2.0, 3.0))
    assert Observations((1.0, 2.0)) != (1.0, 2.0)
    nan = Observations((math.nan,))
    assert nan == nan and nan != Observations((math.nan,))
    assert len({Observations((0.5,)), Observations([0.5]), Observations((0.25,))}) == 2
    assert repr(Observations((1.0, 2.0))) == "Observations(values=(1.0, 2.0))"
    with pytest.raises(AttributeError):
        Observations((1.0,)).values = (2.0,)
    assert pickle.loads(pickle.dumps(nan)).as_array().tobytes() == nan.as_array().tobytes()
    with pytest.raises(InputError):
        Observations([[1.0, 2.0]])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic(all_models):
    for model in all_models:
        a = sample(model, 0.2, 5, 42)
        b = sample(model, 0.2, 5, 42)
        assert a.values == b.values


def test_sampling_stays_in_domain(all_models):
    for model in all_models:
        xs = sample(model, 0.3, 400, 9).as_array()
        if model.discrete_x:
            assert np.all((xs == 0.0) | (xs == 1.0))
        else:
            lo, hi = model.x_domain
            assert np.all((xs >= lo) & (xs <= hi))


def test_chi2log_sampler_law_of_large_numbers(chi2):
    # e^(x - xi) is standard exponential, so e^x has unit mean at xi = 0.
    xs = sample(chi2, 0.0, 100_000, 1).as_array()
    assert np.mean(np.exp(xs)) == pytest.approx(1.0, abs=0.02)


def test_binomial_sampler_certain_outcome(binom):
    xs = sample(binom, 0.0, 10, 5).as_array()
    assert np.all(xs == 1.0)  # cos^2(0) = 1


def test_trig_sampler_moments(trig):
    # At xi = 0 the density is even with variance pi^2/12 - 1/2.
    xs = sample(trig, 0.0, 4000, 13).as_array()
    assert np.mean(xs) == pytest.approx(0.0, abs=0.03)
    assert np.var(xs) == pytest.approx(math.pi**2 / 12.0 - 0.5, abs=0.03)


def test_trig_sampler_inverts_cdf_at_each_draw(trig):
    # The sampler maps the generator's n uniform draws through the inverse CDF.
    def cdf(x, xi):
        def prim(v):
            return (v + 0.5 * np.sin(2.0 * v)) / math.pi

        return prim(x - xi) - prim(-HALF_PI - xi)

    for xi, n, seed in ((0.3, 500, 1), (-1.2, 2000, 2), (HALF_PI, 300, 3)):
        xs = sample(trig, xi, n, seed).as_array()
        us = np.random.default_rng(seed).random(n)
        assert np.max(np.abs(cdf(xs, xi) - us)) <= 1e-13


def _draws(trig, xi, n, seed):
    """(u, x): the generator's uniforms, and the trig draws made from them."""
    return np.random.default_rng(seed).random(n), sample(trig, xi, n, seed).as_array()


SAMPLER_XIS = (0.0, 0.3, -1.2, 1.5707, -1.5707)
# The uniforms 0 and 1 - 2^-53 bound the generator's output; 2^-53 is the
# next after 0.
EDGE_US = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53])


def test_trig_sampler_inverts_the_exact_cdf_to_rounding(trig):
    # |F(x) - u| <= 1e-15 with F evaluated in 40 digits, over 22,520 draws:
    # every draw at N = 1 and 2500, every 100th at N = 200,000, and the
    # edges of the generator's range.
    mpmath = pytest.importorskip("mpmath")

    def excess(x, u, xi):
        v = mpmath.mpf(float(x)) - mpmath.mpf(xi)
        edge = -mpmath.pi / 2 - mpmath.mpf(xi)
        prim = (v + mpmath.sin(2 * v) / 2 - edge - mpmath.sin(2 * edge) / 2) / mpmath.pi
        return abs(prim - mpmath.mpf(float(u)))

    with mpmath.workdps(40):
        for xi in SAMPLER_XIS:
            cases = [(EDGE_US, _trig_inverse_cdf(EDGE_US, xi))]
            for n, seed, stride in ((1, 1, 1), (2500, 2, 1), (200_000, 3, 100)):
                us, xs = _draws(trig, xi, n, seed)
                cases.append((us[::stride], xs[::stride]))
            worst = max(excess(x, u, xi) for us, xs in cases for u, x in zip(us, xs))
            assert worst <= 1e-15, (xi, float(worst))


def test_trig_sampler_agrees_with_bisection_within_the_flat_band(trig):
    # The bisection sampler returns the middle of the band over which the
    # computed CDF equals u, about 4 eps / f(x) wide.
    eps = np.finfo(float).eps
    for xi in SAMPLER_XIS:
        cases = [(EDGE_US, _trig_inverse_cdf(EDGE_US, xi))]
        cases += [_draws(trig, xi, n, seed) for n, seed in ((1, 1), (2500, 2), (20_000, 3))]
        for us, xs in cases:
            bound = 1e-14 + 4.0 * eps / ((2.0 / math.pi) * np.cos(xs - xi) ** 2)
            assert np.all(np.abs(xs - bisect_inverse_cdf(us, xi)) <= bound), xi


def test_sample_validation(chi2):
    with pytest.raises(InputError):
        sample(chi2, 0.0, 0, 1)
    with pytest.raises(InputError, match="seed must be nonnegative"):
        sample(chi2, 0.0, 5, -1)


def test_make_model_validation():
    with pytest.raises(InputError):
        make_model("gauss", sigma=0.0)
    # 1/sigma^2 or its square leaves the normal doubles beyond about 1e-77 and 1e77.
    for sigma in (math.inf, 1e-300, 1e-78, 1e77, 1e200):
        with pytest.raises(InputError, match=r"< sigma <"):
            make_model("gauss", sigma=sigma)
    for sigma in (1e-77, 1e76):
        f = make_model("gauss", sigma=sigma).analytic_fisher
        assert sys.float_info.min <= f * f <= sys.float_info.max
    with pytest.raises(ValueError):
        make_model("nope")


def test_infinite_sigma_is_refused_by_every_model():
    for name in ("chi2log", "trig", "binom"):
        with pytest.raises(InputError, match=r"sigma must be finite, got inf"):
            make_model(name, sigma=math.inf)
    with pytest.raises(InputError, match=r"< sigma <"):
        make_model("gauss", sigma=math.inf)


def test_nan_sigma_is_refused_as_not_finite():
    for name in ("chi2log", "gauss", "trig", "binom"):
        with pytest.raises(InputError, match=r"sigma must be finite, got nan"):
            make_model(name, sigma=math.nan)


@pytest.mark.parametrize("sigma", (50.0, 5.0, 0.5, 1.0 + 2.0**-52))
@pytest.mark.parametrize("name", ("chi2log", "trig", "binom"))
def test_sigma_is_refused_by_models_without_a_length_scale(name, sigma):
    # Only gauss has a length scale; another sigma would be echoed beside
    # results that ignore it.
    with pytest.raises(InputError, match=r"sigma must be 1 .*gauss is the one model with a scale"):
        make_model(name, sigma=sigma)
    assert make_model(name, sigma=1.0) == make_model(name)


@pytest.mark.parametrize("xi", (math.inf, -math.inf))
@pytest.mark.parametrize("name", ("chi2log", "gauss"))
def test_infinite_parameter_is_refused_on_the_line(name, xi):
    model = make_model(name)
    for call in (
        lambda: density(model, 0.0, xi),
        lambda: log_density(model, 0.0, xi),
        lambda: sample(model, xi, 5, 1),
        lambda: fisher_gradient_form(model, xi),
        lambda: fisher_curvature_form(model, xi),
    ):
        with pytest.raises(InputError, match=f"parameter {xi!r} must be finite"):
            call()

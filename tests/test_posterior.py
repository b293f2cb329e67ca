import math
import tracemalloc

import numpy as np
import pytest

import gaussn.models
from gaussn import (
    InputError,
    Observations,
    PosteriorGrid,
    compare_to_gaussian,
    gaussian_reference,
    h_closed_form,
    make_model,
    ml_estimate,
    posterior_asymptotic,
    posterior_from_observations,
    sample,
)

HALF_PI = math.pi / 2.0


def _grid_mass(pg):
    return float(np.trapezoid(pg.densities, pg.xi_values))


def _grid_std(pg):
    m = np.trapezoid(pg.xi_values * pg.densities, pg.xi_values)
    v = np.trapezoid((pg.xi_values - m) ** 2 * pg.densities, pg.xi_values)
    return math.sqrt(v)


def test_grids_are_normalized(chi2, trig, binom):
    for pg in (
        posterior_from_observations(chi2, sample(chi2, 0.0, 20, 3)),
        posterior_asymptotic(trig, 0.0, 8),
        posterior_from_observations(binom, sample(binom, 0.4, 30, 3)),
    ):
        assert _grid_mass(pg) == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.diff(pg.xi_values) > 0)


def test_gaussian_model_posterior_is_exactly_gaussian(gauss):
    rng = np.random.default_rng(2)
    for _ in range(6):
        obs = sample(gauss, float(rng.uniform(-1, 1)), int(rng.integers(2, 60)), int(rng.integers(1 << 30)))
        post = posterior_from_observations(gauss, obs)
        ref = gaussian_reference(ml_estimate(gauss, obs), 1.0, obs.n, grid=post.xi_values)
        rep = compare_to_gaussian(post, ref)
        assert rep.sup_log_deviation <= 1e-10
        assert rep.kl_to_gaussian <= 1e-10


def test_gauss_example_center_and_width(gauss):
    obs = Observations((1.0, 3.0, 2.5, 1.5))  # mean 2.0, N = 4
    post = posterior_from_observations(gauss, obs)
    ref = gaussian_reference(2.0, 1.0, 4, grid=post.xi_values)
    assert post.xi_values[np.argmax(post.densities)] == pytest.approx(2.0, abs=1e-9)
    assert _grid_std(ref) == pytest.approx(0.5, abs=1e-6)
    assert compare_to_gaussian(post, ref).sup_log_deviation <= 1e-10


def test_posterior_modes(chi2, binom):
    post = posterior_from_observations(chi2, Observations((0.0,)))
    assert post.xi_values[np.argmax(post.densities)] == pytest.approx(0.0, abs=1e-9)
    post = posterior_from_observations(binom, Observations((1.0,) * 12))
    assert post.xi_values[np.argmax(post.densities)] == pytest.approx(0.0, abs=2e-3)


def test_product_and_exponential_routes_agree(chi2):
    # N copies of one observation give xi_ml = x0 and a likelihood that is
    # exactly exp(N H) up to normalization.
    for x0, n in ((0.0, 1), (0.7, 5), (-0.4, 24)):
        obs = Observations((x0,) * n)
        a = posterior_from_observations(chi2, obs)
        b = posterior_asymptotic(chi2, x0, n)
        np.testing.assert_allclose(a.xi_values, b.xi_values, atol=1e-12)
        np.testing.assert_allclose(a.densities, b.densities, atol=1e-6)


def test_asymptotic_shapes(chi2, trig, gauss):
    # chi2log N=1: density proportional to exp(delta + 1 - e^delta), skewed
    pg = posterior_asymptotic(chi2, 0.0, 1)
    want = np.exp([1 * h_closed_form(chi2, 0.0 - x) for x in pg.xi_values])
    want /= np.trapezoid(want, pg.xi_values)
    np.testing.assert_allclose(pg.densities, want, atol=1e-12)
    mean = np.trapezoid(pg.xi_values * pg.densities, pg.xi_values)
    mode = pg.xi_values[np.argmax(pg.densities)]
    assert mean > mode + 0.1  # visible skew

    pg = posterior_asymptotic(trig, 0.0, 8)
    want = np.exp([8 * h_closed_form(trig, -x) for x in pg.xi_values])
    want /= np.trapezoid(want, pg.xi_values)
    np.testing.assert_allclose(pg.densities, want, atol=1e-12)

    pg = posterior_asymptotic(gauss, 1.5, 9)
    ref = gaussian_reference(1.5, 1.0, 9, grid=pg.xi_values)
    assert compare_to_gaussian(pg, ref).sup_log_deviation <= 1e-12


def test_trig_asymptotic_recentered(trig):
    pg = posterior_asymptotic(trig, 0.8, 16)
    assert pg.xi_values[np.argmax(pg.densities)] == pytest.approx(0.0, abs=1e-9)


def test_gaussian_reference_widths():
    assert _grid_std(gaussian_reference(0.0, 1.0, 160)) == pytest.approx(
        1.0 / math.sqrt(160.0), abs=1e-7
    )
    assert _grid_std(gaussian_reference(0.0, 4.0, 8)) == pytest.approx(
        1.0 / math.sqrt(32.0), abs=1e-7
    )
    pg = gaussian_reference(5.0, 1.0, 1)
    assert pg.xi_values[np.argmax(pg.densities)] == pytest.approx(5.0, abs=1e-9)
    assert _grid_std(pg) == pytest.approx(1.0, abs=1e-6)


def test_compare_identical_and_mismatched(gauss):
    pg = gaussian_reference(0.0, 1.0, 4)
    rep = compare_to_gaussian(pg, pg)
    assert rep.sup_log_deviation == 0.0
    assert rep.kl_to_gaussian == 0.0
    other = gaussian_reference(0.0, 1.0, 4, grid_size=1001)
    with pytest.raises(InputError):
        compare_to_gaussian(pg, other)
    flat = PosteriorGrid(pg.xi_values, np.ones_like(pg.xi_values))
    with pytest.raises(InputError) as exc:
        compare_to_gaussian(pg, flat)
    assert str(exc.value) == "reference grid has no concave log peak"


def test_chi2log_residual_profile_at_160(chi2):
    # After peak matching, the deviation from the Gaussian is
    # N |H(delta) + delta^2/2|; freeze its window maximum as a regression
    # value and check the comparison reproduces it.
    n = 160
    pg = posterior_asymptotic(chi2, 0.0, n)
    ref = gaussian_reference(0.0, 1.0, n, grid=pg.xi_values)
    rep = compare_to_gaussian(pg, ref)
    lo, hi = rep.interval
    assert (lo, hi) == pytest.approx((-3.0 / math.sqrt(n), 3.0 / math.sqrt(n)), abs=1e-12)
    # The window edges fall on grid points; those points belong to the window.
    slack = 1e-9 * (hi - lo)
    window = (pg.xi_values >= lo - slack) & (pg.xi_values <= hi + slack)
    assert np.count_nonzero(window) == 751
    oracle = max(
        abs(n * (h_closed_form(chi2, -x) + x**2 / 2.0)) for x in pg.xi_values[window]
    )
    assert rep.sup_log_deviation == pytest.approx(oracle, abs=1e-9)
    assert 0.36 <= rep.sup_log_deviation <= 0.39  # frozen band, 0.3779 at this grid


def test_deviation_decreases_with_n(chi2, trig):
    for model, f, ns in ((chi2, 1.0, (10, 40, 160, 640)), (trig, 4.0, (2, 4, 8, 32))):
        sups = []
        for n in ns:
            pg = posterior_asymptotic(model, 0.0, n)
            ref = gaussian_reference(0.0, f, n, grid=pg.xi_values)
            sups.append(compare_to_gaussian(pg, ref).sup_log_deviation)
        assert all(a > b for a, b in zip(sups, sups[1:])), (model.id, sups)


def test_trig_kl_decreases_with_n(trig):
    kls = []
    for n in (2, 4, 8, 16):
        pg = posterior_asymptotic(trig, 0.0, n)
        ref = gaussian_reference(0.0, 4.0, n, grid=pg.xi_values)
        kls.append(compare_to_gaussian(pg, ref).kl_to_gaussian)
    assert kls[2] < kls[1]  # N = 8 below N = 4
    assert all(a > b for a, b in zip(kls, kls[1:]))


def _interval_width(pg, mass=0.9973):
    dens = pg.densities
    x = pg.xi_values
    c = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(x))])
    c /= c[-1]
    tail = (1.0 - mass) / 2.0
    return float(np.interp(1.0 - tail, c, x) - np.interp(tail, c, x))


def test_width_shrinks_like_inverse_sqrt_n(chi2, trig, gauss):
    ns = np.array([10, 40, 160, 640])
    for model in (chi2, trig, gauss):
        widths = [_interval_width(posterior_asymptotic(model, 0.0, int(n))) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(widths), 1)[0]
        assert abs(slope + 0.5) <= 0.05, (model.id, slope)


def test_grid_size_validation(chi2):
    with pytest.raises(InputError):
        posterior_from_observations(chi2, Observations((0.0,)), grid_size=100)
    with pytest.raises(InputError):
        posterior_asymptotic(chi2, 0.0, 0)


@pytest.mark.parametrize(
    "fisher,n,message",
    [(0.0, 4, "fisher must be positive"), (1.0, 0, "sample size must be at least 1")],
)
def test_gaussian_reference_validation(fisher, n, message):
    with pytest.raises(InputError) as exc:
        gaussian_reference(0.0, fisher, n)
    assert str(exc.value) == message


def test_window_below_double_spacing_names_halfwidth_and_center():
    # 8 sigma/sqrt(5) ~ 3.6e-20 is below the spacing of doubles at 0.3, so
    # 0.3 +- halfwidth is 0.3 although the window lies inside the domain.
    model = make_model("gauss", sigma=1e-20)
    obs = Observations((0.3,) * 5)
    with pytest.raises(InputError, match=r"halfwidth 3\.57\d*e-20 .* center 0\.2999") as info:
        posterior_from_observations(model, obs, xi_ml=0.3)
    assert "domain" not in str(info.value)


@pytest.mark.parametrize("sigma", (1e-17, 3e-17, 1e-16, 1e-14))
def test_window_with_repeated_grid_points_names_halfwidth_center_and_size(sigma):
    # A window a few doubles wide is not collapsed, but 2001 points over it
    # repeat, and a zero grid step has no curvature or trapezoid weight.
    model = make_model("gauss", sigma=sigma)
    with pytest.raises(InputError, match=r"halfwidth \S+ around center 0\.29\d* .* 2001 strictly"):
        posterior_from_observations(model, sample(model, 0.3, 5, 7))


def test_window_that_misses_the_domain_says_so(gauss):
    from gaussn.posterior import _make_grid

    with pytest.raises(InputError, match="window does not intersect the domain"):
        _make_grid(5.0, 1.0, (-HALF_PI, HALF_PI), 201)
    with pytest.raises(InputError, match="window does not intersect the domain"):
        posterior_from_observations(gauss, Observations((0.3,) * 5), xi_ml=math.inf)


# ---------------------------------------------------------------------------
# sufficient statistics against the N x G product
# ---------------------------------------------------------------------------


def _product_oracle(name, sigma, xs, grid):
    """Normalized likelihood from the N x G sum of log densities, in row chunks."""
    log_lik = np.zeros_like(grid)
    for start in range(0, xs.size, 2000):
        u = xs[start : start + 2000, None] - grid[None, :]
        if name == "chi2log":
            log_lik += np.sum(u - np.exp(u), axis=0)
        else:
            log_lik += np.sum(-(u**2) / (2.0 * sigma**2), axis=0)
    dens = np.exp(log_lik - np.max(log_lik))
    return dens / np.trapezoid(dens, grid)


@pytest.mark.parametrize("n", (1, 160, 5000, 20000))
@pytest.mark.parametrize(
    "name,sigma", (("chi2log", 1.0), ("gauss", 0.01), ("gauss", 1.0), ("gauss", 100.0))
)
def test_sufficient_statistics_match_product_oracle(name, sigma, n):
    model = make_model(name, sigma=sigma)
    obs = sample(model, 0.3, n, 1000 + n)
    post = posterior_from_observations(model, obs)
    want = _product_oracle(name, sigma, obs.as_array(), post.xi_values)
    assert np.max(np.abs(post.densities - want)) <= 1e-8 * np.max(want)


def test_gauss_posterior_equals_reference_to_rounding():
    for sigma in (0.01, 1.0, 100.0):
        model = make_model("gauss", sigma=sigma)
        for n, seed in ((1, 3), (25, 4), (5000, 5)):
            obs = sample(model, 0.3, n, seed)
            xi_ml = ml_estimate(model, obs)
            post = posterior_from_observations(model, obs, xi_ml=xi_ml)
            ref = gaussian_reference(xi_ml, model.analytic_fisher, n, grid=post.xi_values)
            assert compare_to_gaussian(post, ref).sup_log_deviation <= 1e-12


def test_given_estimate_is_the_computed_one(chi2, trig, binom):
    for model, n in ((chi2, 40), (trig, 30), (binom, 40)):
        obs = sample(model, 0.3, n, 8)
        a = posterior_from_observations(model, obs)
        b = posterior_from_observations(model, obs, xi_ml=ml_estimate(model, obs))
        np.testing.assert_array_equal(a.xi_values, b.xi_values)
        np.testing.assert_array_equal(a.densities, b.densities)


def test_blocked_trig_likelihood_matches_one_block(trig, monkeypatch):
    obs = sample(trig, 0.3, 300, 5)
    monkeypatch.setattr(gaussn.models, "_BLOCK_ELEMENTS", 1 << 30)  # one block
    whole = posterior_from_observations(trig, obs)
    monkeypatch.setattr(gaussn.models, "_BLOCK_ELEMENTS", 7 * 4001)  # 16 rows a block, the least
    blocked = posterior_from_observations(trig, obs)
    np.testing.assert_allclose(blocked.xi_values, whole.xi_values, rtol=0, atol=1e-13)
    assert np.max(np.abs(blocked.densities - whole.densities)) <= 1e-9 * np.max(whole.densities)


@pytest.mark.parametrize("name", ("chi2log", "gauss"))
def test_posterior_memory_does_not_scale_with_n_times_grid(name):
    # At N = 10^6 an N x G matrix would take 16 GB; the sufficient
    # statistics need a few arrays of N doubles (8 MB each) plus O(G).
    model = make_model(name)
    obs = sample(model, 0.3, 10**6, 17)
    tracemalloc.start()
    try:
        post = posterior_from_observations(model, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert _grid_mass(post) == pytest.approx(1.0, abs=1e-6)


def test_trig_posterior_memory_is_one_block(trig):
    # At N = 20,000 an N x G matrix would take 320 MB; the kernel holds two
    # block buffers of 2**16 doubles (512 kB each) plus O(N + G): 1.5 MB.
    obs = sample(trig, 0.3, 20_000, 18)
    xi_ml = ml_estimate(trig, obs)
    tracemalloc.start()
    try:
        post = posterior_from_observations(trig, obs, xi_ml=xi_ml)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert _grid_mass(post) == pytest.approx(1.0, abs=1e-6)


def test_window_keeps_its_edge_points_under_tiny_shifts(trig):
    # The 3-sigma window edges land on grid points to within rounding; a
    # 1e-10 shift of the estimate must not drop them from the sup.
    obs = sample(trig, 0.3, 500, 2)
    xi_ml = ml_estimate(trig, obs)
    counts, sups = set(), []
    for shift in np.linspace(-5e-10, 5e-10, 41):
        post = posterior_from_observations(trig, obs, xi_ml=xi_ml + shift)
        ref = gaussian_reference(xi_ml + shift, 4.0, obs.n, grid=post.xi_values)
        rep = compare_to_gaussian(post, ref)
        lo, hi = rep.interval
        slack = 1e-9 * (hi - lo)
        counts.add(int(np.count_nonzero((post.xi_values >= lo - slack) & (post.xi_values <= hi + slack))))
        sups.append(rep.sup_log_deviation)
    assert counts == {751}
    assert max(sups) - min(sups) <= 1e-6 * max(sups)


def test_periodic_grid_wraps_instead_of_clipping(trig):
    # The estimate sits next to -pi/2; the window must not run off the grid.
    obs = sample(trig, 1.55, 50, 3)
    xi_ml = ml_estimate(trig, obs)
    assert xi_ml == pytest.approx(-1.5394, abs=1e-4)
    post = posterior_from_observations(trig, obs, xi_ml=xi_ml)
    ref = gaussian_reference(xi_ml, 4.0, obs.n, grid=post.xi_values)
    lo, hi = compare_to_gaussian(post, ref).interval
    assert post.xi_values[0] < lo < hi < post.xi_values[-1]
    assert post.xi_values[0] < -HALF_PI
    assert post.xi_values[np.argmax(post.densities)] == pytest.approx(xi_ml, abs=1e-3)


def test_periodic_grid_halfwidth_stops_at_one_period(trig, binom):
    for model in (trig, binom):
        obs = sample(model, 0.3, 2, 4)
        post = posterior_from_observations(model, obs, xi_ml=1.2)
        assert post.xi_values[0] == pytest.approx(1.2 - HALF_PI, abs=1e-15)
        assert post.xi_values[-1] == pytest.approx(1.2 + HALF_PI, abs=1e-15)

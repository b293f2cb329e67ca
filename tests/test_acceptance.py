"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gaussn import (
    compare_to_gaussian,
    fisher_curvature_form,
    fisher_gradient_form,
    gaussian_reference,
    h_closed_form,
    h_functional,
    integrate,
    integrate_with_log_singularity,
    make_model,
    max_abs_derivative,
    minimal_n,
    ml_estimate,
    posterior_asymptotic,
    posterior_from_observations,
    remainder_ratio,
    sample,
    table_rows,
)
from gaussn.information import default_probe_points
from gaussn.quadrature import QuadratureConfig

HALF_PI = math.pi / 2.0

TABLE1 = (
    (3, "3.263"), (4, "2.241"), (5, "1.711"), (10, "0.817"), (20, "0.437"),
    (30, "0.316"), (40, "0.254"), (50, "0.216"), (75, "0.163"), (100, "0.135"),
    (150, "0.104"), (155, "0.102"), (160, "0.100"), (165, "0.098"),
)


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL acceptance criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS acceptance criterion {number}: {label} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_reference_table():
    with criterion(1, "14-row reference table to 3 decimals", 1.0):
        model = make_model("chi2log")
        rows = table_rows(model, [n for n, _ in TABLE1])
        for (n, _, rounded), (_, want) in zip(rows, TABLE1):
            assert f"{rounded:.3f}" == want, f"N={n}"


def test_criterion_2_minimal_n_chi2log():
    with criterion(2, "chi2log minimal N: 160 rounded / 161 strict", 1.0):
        model = make_model("chi2log")
        assert minimal_n(model, 0.1, "paper_rounding") == 160
        assert minimal_n(model, 0.1, "strict") == 161
        assert f"{remainder_ratio(model, 160):.5f}" == "0.10022"
        assert f"{remainder_ratio(model, 161):.5f}" == "0.09983"


def test_criterion_3_minimal_n_trig():
    with criterion(3, "trig minimal N: 8 with ratio 3/32", 1.0):
        model = make_model("trig")
        assert minimal_n(model, 0.1, "strict") == 8
        assert remainder_ratio(model, 8) == pytest.approx(3.0 / 32.0, rel=1e-15)
        assert remainder_ratio(model, 8) == pytest.approx(0.09375, abs=1e-15)


def test_criterion_4_fisher_constants():
    with criterion(4, "Fisher constants and two-form agreement", 10.0):
        rng = np.random.default_rng(404)
        cases = (
            (make_model("chi2log"), 1.0),
            (make_model("trig"), 4.0),
            (make_model("binom"), 4.0),
            (make_model("gauss", sigma=1.0), 1.0),
            (make_model("gauss", sigma=2.0), 0.25),
        )
        for model, expected in cases:
            probes = default_probe_points(model)
            lo, hi = min(probes), max(probes)
            for xi in rng.uniform(lo, hi, size=10):
                g = fisher_gradient_form(model, float(xi))
                c = fisher_curvature_form(model, float(xi))
                assert abs(g - expected) <= 1e-5, (model.id, model.sigma_param, xi)
                assert abs(g - c) <= 1e-5, (model.id, model.sigma_param, xi)


def test_criterion_5_h_oracle_equivalence():
    with criterion(5, "H quadrature vs closed forms, nonpositivity", 30.0):
        rng = np.random.default_rng(505)
        for name, span in (("chi2log", 3.0), ("trig", 1.5)):
            model = make_model(name)
            for _ in range(50):
                d = float(rng.uniform(-span, span))
                ev = h_functional(model, d)
                assert abs(ev.value - h_closed_form(model, d)) <= 1e-7, (name, d)
            for d in np.linspace(-span, span, 51):
                v = h_functional(model, float(d)).value
                assert (v == 0.0) if d == 0.0 else (v < 0.0)


def test_criterion_6_derivative_anchors():
    with criterion(6, "H derivative anchors at zero and window maxima", 5.0):
        trig = make_model("trig")
        anchors = (0.0, -4.0, 0.0, 16.0)
        for order, want in enumerate(anchors, start=1):
            assert trig._family.h_derivative(order, 0.0) == pytest.approx(want, abs=1e-12)
        chi2 = make_model("chi2log")
        for n in (10, 160):
            w = 3.0 / math.sqrt(n)
            assert max_abs_derivative(chi2, 3, w) == pytest.approx(math.exp(w), abs=1e-9)


def test_criterion_7_quadrature_special_values():
    with criterion(7, "quadrature special values", 5.0):
        i0 = integrate_with_log_singularity(
            lambda s: np.log(np.cos(s)), (0.0, HALF_PI), [HALF_PI]
        ).value
        assert abs(i0 - (-(HALF_PI) * math.log(2.0))) <= 1e-8
        i2 = integrate_with_log_singularity(
            lambda s: np.sin(s) ** 2 * np.log(np.cos(s)), (0.0, HALF_PI), [HALF_PI]
        ).value
        assert abs(i2 - (-(math.pi / 8.0) * (2.0 * math.log(2.0) + 1.0))) <= 1e-8
        period = integrate(lambda s: np.cos(s) ** 2, (-HALF_PI, HALF_PI)).value
        assert abs(1.0 / period - 2.0 / math.pi) <= 1e-8  # normalizer of cos^2
        gamma2 = integrate(lambda t: np.exp(2.0 * t - np.exp(t)), (-math.inf, math.inf)).value
        assert abs(gamma2 - 1.0) <= 1e-8


def test_criterion_8_posterior_properties():
    with criterion(8, "posterior properties", 120.0):
        gauss = make_model("gauss")
        rng = np.random.default_rng(808)
        for _ in range(4):
            obs = sample(gauss, float(rng.uniform(-1, 1)), int(rng.integers(3, 80)),
                         int(rng.integers(1 << 30)))
            post = posterior_from_observations(gauss, obs)
            ref = gaussian_reference(ml_estimate(gauss, obs), 1.0, obs.n, grid=post.xi_values)
            assert compare_to_gaussian(post, ref).sup_log_deviation <= 1e-10

        for name, fisher, ns in (("chi2log", 1.0, (10, 40, 160, 640)),
                                 ("trig", 4.0, (2, 4, 8, 32))):
            model = make_model(name)
            sups = []
            for n in ns:
                pg = posterior_asymptotic(model, 0.0, n)
                ref = gaussian_reference(0.0, fisher, n, grid=pg.xi_values)
                sups.append(compare_to_gaussian(pg, ref).sup_log_deviation)
            assert all(a > b for a, b in zip(sups, sups[1:])), (name, sups)

        for name in ("chi2log", "trig"):
            model = make_model(name)
            ns = np.array([10, 40, 160, 640])
            widths = []
            for n in ns:
                pg = posterior_asymptotic(model, 0.0, int(n))
                dens, x = pg.densities, pg.xi_values
                c = np.concatenate(
                    [[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(x))]
                )
                c /= c[-1]
                widths.append(np.interp(0.99865, c, x) - np.interp(0.00135, c, x))
            slope = np.polyfit(np.log(ns), np.log(widths), 1)[0]
            assert abs(slope + 0.5) <= 0.05, (name, slope)


def test_criterion_9_excision_stability():
    with criterion(9, "log-singularity integral stable under tol 1e-10 -> 1e-12", 5.0):
        f = lambda s: (2.0 / math.pi) * np.cos(s) ** 2 * np.log(
            np.cos(s - math.pi / 4.0) ** 2 / np.cos(s) ** 2
        )
        pts = [math.pi / 4.0 - HALF_PI]
        values = []
        for tol in (1e-10, 1e-12):
            cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol)
            values.append(
                integrate_with_log_singularity(f, (-HALF_PI, HALF_PI), pts, cfg).value
            )
        assert abs(values[0] - values[1]) <= 1e-10
        assert values[0] == pytest.approx(-1.0, abs=1e-7)  # H at a quarter period

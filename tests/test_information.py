import math
import warnings

import numpy as np
import pytest

from gaussn import (
    fisher_curvature_form,
    fisher_gradient_form,
    make_model,
    normalization_check,
    prior_measure,
)
from gaussn.information import _score_fd, default_probe_points


def test_gradient_form_examples(chi2, binom):
    assert fisher_gradient_form(chi2, 0.0) == pytest.approx(1.0, abs=1e-6)
    assert fisher_gradient_form(binom, 0.4) == pytest.approx(4.0, abs=1e-9)
    gauss2 = make_model("gauss", sigma=2.0)
    assert fisher_gradient_form(gauss2, 1.3) == pytest.approx(0.25, abs=1e-9)


def test_curvature_form_examples(chi2, gauss, trig):
    assert fisher_curvature_form(trig, 0.0) == pytest.approx(4.0, abs=1e-6)
    assert fisher_curvature_form(chi2, -2.0) == pytest.approx(1.0, abs=1e-6)
    for xi in (-1.0, 0.0, 2.5):
        assert fisher_curvature_form(gauss, xi) == pytest.approx(1.0, abs=1e-6)


def test_prior_measure(chi2, trig, binom):
    assert prior_measure(trig) == 2.0
    assert prior_measure(binom) == 2.0
    assert prior_measure(chi2) == 1.0
    assert prior_measure(make_model("gauss", sigma=4.0)) == pytest.approx(0.25)


def test_fisher_forms_across_trig_probe_points(trig):
    # trig is still evaluated at xi: the gradient form is the same at every
    # probe, and both forms agree at the first.
    probes = default_probe_points(trig)
    assert len(probes) == 10
    grads = [fisher_gradient_form(trig, float(xi)) for xi in probes]
    curv = fisher_curvature_form(trig, float(probes[0]))
    assert grads[0] == pytest.approx(4.0, abs=1e-5)
    assert curv == pytest.approx(4.0, abs=1e-5)
    assert abs(grads[0] - curv) <= 1e-5
    assert max(abs(g - grads[0]) for g in grads) <= 1e-5


@pytest.mark.parametrize("xi", [round(-1.5 + 0.25 * k, 2) for k in range(13)])
def test_trig_fisher_forms_within_1e_7_of_4(trig, xi):
    # The curvature form integrates ln cos^2 at the stencil's shifted zeros.
    assert abs(fisher_gradient_form(trig, xi) - 4.0) <= 1e-7
    assert abs(fisher_curvature_form(trig, xi) - 4.0) <= 1e-7


def test_wide_gaussian_scales(gauss):
    # Both forms run on the unit record and divide by sigma^2 once, so
    # neither steps nor windows follow sigma and precision holds at every
    # scale (steps grown with sigma underflowed the score at sigma = 1e-8,
    # and a floor grown with sigma let the curvature form drift to 1.08 F
    # at sigma = 1e8).
    for s in (1e-20, 20.0, 1e3, 1e8, 1e12, 1e20):
        model = make_model("gauss", sigma=s)
        want = 1.0 / s**2
        assert fisher_gradient_form(model, 0.3 * s) == pytest.approx(want, rel=1e-7, abs=0)
        assert fisher_curvature_form(model, 0.3 * s) == pytest.approx(want, rel=1e-6, abs=0)


def test_binomial_degenerate_parameter_is_nudged(binom):
    # At xi = 0 one outcome has probability zero; the constancy of F in xi
    # makes the nudged evaluation exact up to finite-difference error.
    assert fisher_gradient_form(binom, 0.0) == pytest.approx(4.0, abs=1e-6)
    assert fisher_curvature_form(binom, 0.0) == pytest.approx(4.0, abs=1e-5)
    assert fisher_curvature_form(binom, math.pi / 2.0) == pytest.approx(4.0, abs=1e-5)


# Bit patterns of both forms at xi = 0.3, recorded before the quadrature
# evaluated both halves of a split in one integrand call (chi2log and gauss
# re-recorded when line families were evaluated on their unit record at
# xi = 0, so theirs are the xi = 0 bits; trig's curvature form re-recorded
# when singular integrals were split at their singular points).  Any change
# to the partition, the summation order or the integrand arithmetic shows
# here.
FROZEN_FISHER = {
    "chi2log": (0.9999999999972502, 1.0000000008784118),
    "gauss": (0.9999999999864819, 0.9999999932757442),
    "trig": (3.9999999999839475, 3.9999999914986444),
    "binom": (3.9999999999793614, 4.000000104190075),
}


@pytest.mark.parametrize("name", sorted(FROZEN_FISHER))
def test_fisher_forms_bit_identical(name):
    model = make_model(name)
    grad, curv = FROZEN_FISHER[name]
    assert repr(fisher_gradient_form(model, 0.3)) == repr(grad)
    assert repr(fisher_curvature_form(model, 0.3)) == repr(curv)


LINE_FAMILIES = [("chi2log", 1.0)] + [("gauss", s) for s in (0.01, 0.1, 0.5, 1.0, 2.0, 50.0)]
LINE_XI = (0.0, 0.3, -0.3, 1.1, 5.0, 20.0, 100.0, 1000.0, -1000.0)


@pytest.mark.parametrize("name,sigma", LINE_FAMILIES)
@pytest.mark.parametrize("xi", LINE_XI)
def test_line_families_away_from_the_origin_and_unit_scale(name, sigma, xi):
    # A line family is integrated on its unit record at xi = 0: a window
    # fixed about x = 0 at the family's own scale and xi missed a narrow
    # density, or met only a zero of the integrand, and "converged" to 0.
    model = make_model(name, sigma=sigma)
    f = model.analytic_fisher
    assert fisher_gradient_form(model, xi) == pytest.approx(f, rel=1e-6, abs=0)
    assert fisher_curvature_form(model, xi) == pytest.approx(f, rel=1e-6, abs=0)
    assert normalization_check(model, xi) == pytest.approx(1.0, abs=1e-10)


def test_narrow_gaussian_normalization():
    # Integrated about xi = 0.3 at scale 1e-20, 0.3 + 1e-20 t rounds to 0.3
    # for every t: the integrand was flat and the tail check raised.
    assert normalization_check(make_model("gauss", sigma=1e-20), 0.3) == pytest.approx(1.0, abs=1e-12)


class _Ramp:
    """A family whose density x + xi has score numerator 1 everywhere, zeros included."""

    def density(self, xs, xi):
        return xs + xi


def test_score_is_zero_where_the_density_is_zero():
    xs = np.array([0.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score = _score_fd(_Ramp(), xs, 0.0, xs, 1e-5)
    assert score[0] == 0.0
    assert score[1] == pytest.approx(0.5, rel=1e-9)

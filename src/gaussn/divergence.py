"""The expected log-likelihood-ratio functional H and its derivatives.

For a translation family p(x - xi), the expected per-observation log
likelihood relative to its maximum is

    H(delta) = integral  p(u) ln[ p(u + delta) / p(u) ] du,

the negative Kullback-Leibler divergence between the density at the
maximum-likelihood point and at a parameter a distance ``delta`` away.
The convention throughout this module is

    delta = xi_ml - xi,

and every derivative below is taken with respect to delta.  H is
nonpositive, vanishes only at delta = 0, and its negative second derivative
at zero is the Fisher information.

Closed forms (validated against quadrature by the test suite before the
criterion layer relies on them):

    chi2log:  H(delta) = delta + 1 - e^delta
    gauss:    H(delta) = -delta^2 / (2 sigma^2)
    trig:     H(delta) = cos(2 delta) - 1

The binomial model has no two-point H of its own; it inherits the H of its
trigonometric carrier, which shares its Fisher information and posterior
shape.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InputError, UnsupportedModelError
from .models import ModelId, ModelSpec, _line_config, _log_density_unchecked, make_model
from .quadrature import QuadratureConfig, integrate, integrate_with_log_singularity

__all__ = [
    "HEvaluation",
    "h_functional",
    "h_closed_form",
    "h_derivative_analytic",
    "h_derivative_numeric",
    "max_abs_derivative",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class HEvaluation:
    delta: float
    value: float
    error_estimate: float
    method: Literal["quadrature", "closed_form"]


def _carrier(model: ModelSpec) -> ModelSpec:
    """The translation family whose H the model uses."""
    if model.id is ModelId.BINOMIAL_TRIG_IRF:
        return make_model(ModelId.TRIG_TRANSLATIONAL)
    return model


def _check_delta(model: ModelSpec, delta: float):
    if model.id is ModelId.TRIG_TRANSLATIONAL and abs(delta) > math.pi:
        raise InputError(f"shift {delta!r} exceeds one period (|delta| <= pi)")


def _log_ratio(model: ModelSpec, us, delta: float):
    """ln p(u + delta) - ln p(u), formed without catastrophic cancellation.

    The naive difference of two log densities loses all significant digits
    once |delta| is small (H ~ -F delta^2 / 2 but the two logs agree to
    O(delta)); these forms keep the sign of H correct down to
    |delta| ~ 1e-8.
    """
    mid = model.id
    if mid is ModelId.CHI_SQUARED_LOG:
        with np.errstate(over="ignore"):
            return delta - np.exp(us) * np.expm1(delta)
    if mid is ModelId.GAUSSIAN_SHIFT:
        return -(2.0 * us + delta) * delta / (2.0 * model.sigma_param**2)
    with np.errstate(divide="ignore"):
        return 2.0 * (np.log(np.abs(np.cos(us + delta))) - np.log(np.abs(np.cos(us))))


def h_functional(model: ModelSpec, delta: float, cfg: QuadratureConfig | None = None) -> HEvaluation:
    """Evaluate H(delta) by quadrature.

    The trigonometric integrand diverges logarithmically where the shifted
    cosine vanishes; those points are excised and restored by the
    quadrature layer.
    """
    model = _carrier(model)
    _check_delta(model, delta)
    delta = float(delta)
    if delta == 0.0:
        return HEvaluation(0.0, 0.0, 0.0, "quadrature")  # integrand identically zero

    def integrand(us):
        p0 = np.exp(_log_density_unchecked(model, us, 0.0))
        with np.errstate(invalid="ignore"):
            # p ln(p'/p) -> 0 where p underflows; only that limit is masked,
            # a non-finite ratio against positive weight must surface
            return np.where(p0 > 0.0, p0 * _log_ratio(model, us, delta), 0.0)

    if model.id is ModelId.TRIG_TRANSLATIONAL:
        lo, hi = model.x_domain
        points = [
            u for u in (k * _HALF_PI - delta for k in (-3, -1, 1, 3)) if lo <= u <= hi
        ]
        res = integrate_with_log_singularity(integrand, (lo, hi), points, cfg)
    else:
        # For small shifts H ~ -F delta^2 / 2 sits far below the default
        # absolute tolerance; tighten it so the nonpositivity theorem
        # survives the quadrature (the integrand scale shrinks with delta,
        # so the tighter target stays reachable).
        base = _line_config(model, 0.0, cfg)  # widen for wide Gaussians
        predicted = 0.5 * model.analytic_fisher * delta * delta
        abs_eff = min(base.abs_tol, max(1e-3 * predicted, 1e-17))
        if abs_eff < base.abs_tol:
            base = dataclasses.replace(base, abs_tol=abs_eff)
        res = integrate(integrand, model.x_domain, base)
    return HEvaluation(delta, res.value, res.error_estimate, "quadrature")


def h_closed_form(model: ModelSpec, delta: float) -> float:
    if model.id is ModelId.BINOMIAL_TRIG_IRF:
        raise UnsupportedModelError("no closed-form H for the binomial model; use its trigonometric carrier")
    _check_delta(model, delta)
    if model.id is ModelId.CHI_SQUARED_LOG:
        return float(delta + 1.0 - math.exp(delta))
    if model.id is ModelId.GAUSSIAN_SHIFT:
        return float(-(delta**2) / (2.0 * model.sigma_param**2))
    return float(math.cos(2.0 * delta) - 1.0)


def h_derivative_analytic(model: ModelSpec, order: int, delta: float) -> float:
    """Exact derivative d^order/d delta^order H(delta).

    chi2log: 1 - e^delta, then -e^delta for every higher order.
    gauss:   -delta/sigma^2, -1/sigma^2, then identically zero.
    trig:    2^order * cos(2 delta + order * pi/2).
    """
    if order < 1:
        raise InputError("derivative order must be at least 1")
    if model.id is ModelId.BINOMIAL_TRIG_IRF:
        raise UnsupportedModelError("binomial H derivatives live on the trigonometric carrier")
    _check_delta(model, delta)
    if model.id is ModelId.CHI_SQUARED_LOG:
        return float(1.0 - math.exp(delta)) if order == 1 else float(-math.exp(delta))
    if model.id is ModelId.GAUSSIAN_SHIFT:
        s2 = model.sigma_param**2
        if order == 1:
            return float(-delta / s2)
        return float(-1.0 / s2) if order == 2 else 0.0
    return float(2.0**order * math.cos(2.0 * delta + order * _HALF_PI))


def h_derivative_numeric(
    model: ModelSpec, order: int, delta: float, cfg: QuadratureConfig | None = None
) -> float:
    """Central finite difference of the quadrature H, Richardson extrapolated once.

    Steps: 1e-4 for orders 1 and 2, 1e-2 for orders 3 and 4 (the higher
    orders divide by h^3, h^4 and need the larger step to stay above the
    quadrature noise).  The inner quadrature runs at a tightened tolerance
    for the same reason.
    """
    if not 1 <= order <= 4:
        raise InputError("numeric derivatives support orders 1 through 4")
    model = _carrier(model)
    h = 1e-4 if order <= 2 else 1e-2
    _check_delta(model, delta)
    if model.id is ModelId.TRIG_TRANSLATIONAL and abs(delta) + 2.0 * h > math.pi:
        raise InputError("delta too close to the period boundary for the stencil")
    base = cfg or QuadratureConfig()
    inner = dataclasses.replace(
        base, abs_tol=min(base.abs_tol, 1e-13), rel_tol=min(base.rel_tol, 1e-13)
    )
    cache: dict[float, float] = {}

    def hv(d):
        d = round(d, 15)
        if d not in cache:
            cache[d] = h_functional(model, d, inner).value
        return cache[d]

    def stencil(hh):
        if order == 1:
            return (hv(delta + hh) - hv(delta - hh)) / (2.0 * hh)
        if order == 2:
            return (hv(delta + hh) - 2.0 * hv(delta) + hv(delta - hh)) / hh**2
        if order == 3:
            return (
                hv(delta + 2 * hh) - 2.0 * hv(delta + hh) + 2.0 * hv(delta - hh) - hv(delta - 2 * hh)
            ) / (2.0 * hh**3)
        return (
            hv(delta + 2 * hh)
            - 4.0 * hv(delta + hh)
            + 6.0 * hv(delta)
            - 4.0 * hv(delta - hh)
            + hv(delta - 2 * hh)
        ) / hh**4

    coarse = stencil(h)
    fine = stencil(h / 2.0)
    return float((4.0 * fine - coarse) / 3.0)


def max_abs_derivative(model: ModelSpec, order: int, interval_halfwidth: float) -> float:
    """Largest |H^(order)| over |delta| <= interval_halfwidth.

    The cases the acceptance criterion needs have closed maxima: e^w for
    the chi2log third derivative (monotone), 16 for the trigonometric
    fourth derivative (cosine peak at zero), and 0 for every derivative of
    the Gaussian H beyond the second (H is exactly quadratic).  Other
    orders take a dense scan of the analytic derivative.
    """
    if not interval_halfwidth > 0:
        raise InputError("interval halfwidth must be positive")
    model = _carrier(model)
    if model.id is ModelId.CHI_SQUARED_LOG and order == 3:
        return float(math.exp(interval_halfwidth))
    if model.id is ModelId.TRIG_TRANSLATIONAL and order == 4:
        return 16.0
    if model.id is ModelId.GAUSSIAN_SHIFT and order >= 3:
        return 0.0
    w = interval_halfwidth
    if model.id is ModelId.TRIG_TRANSLATIONAL:
        w = min(w, math.pi)  # one period
    grid = np.linspace(-w, w, 10001)
    return float(max(abs(h_derivative_analytic(model, order, d)) for d in grid))

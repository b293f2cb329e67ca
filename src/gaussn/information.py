"""Fisher information by both definitions, plus the invariant prior measure.

The two definitions (expected squared score, negative expected log-density
curvature) are evaluated by genuinely independent numerical routes so that
their agreement is a real cross-check:

* gradient form: the score is a Richardson-extrapolated central difference
  of the *density*, divided by the density.  Differencing the density rather
  than its logarithm keeps the integrand bounded and smooth where the
  density has zeros (the trigonometric model), where a differenced log
  squared would pick up a spurious ln^2 boundary layer of order 1e-4.
* curvature form: a plain central second difference of the log density,
  integrated against the density.  Log singularities of the shifted stencil
  arms are excised and restored by the quadrature layer.

Both forms are independent of xi for every bundled model; the constant
prior measure is sqrt(F) with the proportionality constant fixed to 1 (it
cancels in every posterior).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .models import (
    ModelId,
    ModelSpec,
    _check_xi,
    _density_unchecked,
    _line_config,
    _log_density_unchecked,
)
from .quadrature import QuadratureConfig, integrate, integrate_with_log_singularity

__all__ = [
    "FisherReport",
    "fisher_gradient_form",
    "fisher_curvature_form",
    "fisher_report",
    "prior_measure",
]

_GRAD_STEP = 1e-5
_CURV_STEP = 1e-4
_HALF_PI = math.pi / 2.0

# Finite differencing of machine-precision values divides roundoff by h (or
# h^2), so the integrands carry irreducible pointwise noise.  Quadrature
# cannot certify tolerances below that floor; the noise is zero-mean, so the
# returned values are still far more accurate than the floor itself.  The
# floor scales with the expected result so that small-Fisher models (wide
# Gaussians) are not asked for meaningless absolute accuracy.
_GRAD_TOL_FLOOR = 1e-9
_CURV_TOL_FLOOR = 5e-8


def _floored(model: ModelSpec, cfg: QuadratureConfig | None, floor: float) -> QuadratureConfig:
    base = cfg or QuadratureConfig()
    f = model.analytic_fisher
    # Tighten for small results (wide Gaussians, F << abs_tol), but never
    # below the stencil noise, which grows with the step scale.
    abs_eff = max(
        min(base.abs_tol, f * base.rel_tol),
        f * floor * max(1.0, model.sigma_param),
    )
    return dataclasses.replace(base, abs_tol=abs_eff, rel_tol=max(base.rel_tol, floor))


@dataclass(frozen=True)
class FisherReport:
    gradient_form: float
    curvature_form: float
    xi_probe_values: tuple[float, ...]
    max_xi_variation: float


def _nudge_binomial(xi: float) -> float:
    """Move xi off the points where one outcome has probability zero.

    At xi = 0 and +-pi/2 the defining sum contains a 0 * inf limit that a
    pointwise finite difference cannot represent.  The Fisher information of
    this model is constant in xi, so evaluating a short distance away is
    exact; 0.05 keeps the second-difference truncation error below 1e-5.
    """
    margin = 0.05
    if abs(xi) < margin:
        return margin
    if xi > _HALF_PI - margin:
        return _HALF_PI - margin
    if xi < -_HALF_PI + margin:
        return -_HALF_PI + margin
    return xi


def _fd_step(model: ModelSpec, h: float) -> float:
    # The base steps assume unit length scale; the Gaussian family's scale
    # is sigma, and a fixed step drowns in roundoff once sigma is large.
    if model.id is ModelId.GAUSSIAN_SHIFT:
        return h * max(1.0, model.sigma_param)
    return h


def _score_fd(model: ModelSpec, xs, xi: float, p):
    """Numerical score d/dxi ln p, as a density difference over the density.

    ``p`` is the density at ``xs`` and ``xi``, which every caller already
    holds.  The central difference of p is Richardson extrapolated once;
    where the density underflows to zero the score is reported as zero
    (those points carry no weight).
    """
    h = _fd_step(model, _GRAD_STEP)

    def diff(hh):
        return (
            _density_unchecked(model, xs, xi + hh) - _density_unchecked(model, xs, xi - hh)
        ) / (2.0 * hh)

    d = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = d[mask] / p[mask]
    return out


def fisher_gradient_form(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Expected squared score, E[(d/dxi ln p)^2]."""
    _check_xi(model, xi)
    if model.id is ModelId.BINOMIAL_TRIG_IRF:
        xi = _nudge_binomial(xi)
        xs = np.array([0.0, 1.0])
        p = _density_unchecked(model, xs, xi)
        return float(np.sum(p * _score_fd(model, xs, xi, p) ** 2))

    def integrand(xs):
        p = _density_unchecked(model, xs, xi)
        return p * _score_fd(model, xs, xi, p) ** 2

    if math.isinf(model.x_domain[0]):
        cfg = _line_config(model, xi, cfg)
    return integrate(integrand, model.x_domain, _floored(model, cfg, _GRAD_TOL_FLOOR)).value


def _curvature_stencil(model: ModelSpec, xs, xi: float, ld):
    """Second difference of ln p in xi; ``ld`` is ln p at ``xi`` itself."""
    h = _fd_step(model, _CURV_STEP)
    return (
        _log_density_unchecked(model, xs, xi + h)
        - 2.0 * ld
        + _log_density_unchecked(model, xs, xi - h)
    ) / h**2


def fisher_curvature_form(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Negative expected curvature of the log density, -E[d^2/dxi^2 ln p]."""
    _check_xi(model, xi)
    if model.id is ModelId.BINOMIAL_TRIG_IRF:
        xi = _nudge_binomial(xi)
        xs = np.array([0.0, 1.0])
        ld = _log_density_unchecked(model, xs, xi)
        return float(-np.sum(np.exp(ld) * _curvature_stencil(model, xs, xi, ld)))

    def integrand(xs):
        ld = _log_density_unchecked(model, xs, xi)
        return np.exp(ld) * _curvature_stencil(model, xs, xi, ld)

    if math.isinf(model.x_domain[0]):
        cfg = _line_config(model, xi, cfg)
    cfg = _floored(model, cfg, _CURV_TOL_FLOOR)
    if model.id is ModelId.TRIG_TRANSLATIONAL:
        # The stencil arms ln cos^2(x - xi -+ h) diverge at h-shifted images
        # of the density zeros; the zeros themselves are harmless but sharp.
        lo, hi = model.x_domain
        points = []
        for x0 in (xi - _HALF_PI, xi + _HALF_PI):
            for s in (x0 - _CURV_STEP, x0, x0 + _CURV_STEP):
                if lo <= s <= hi:
                    points.append(s)
        res = integrate_with_log_singularity(integrand, model.x_domain, points, cfg)
        return -res.value
    return -integrate(integrand, model.x_domain, cfg).value


def fisher_report(
    model: ModelSpec,
    xi_values=None,
    cfg: QuadratureConfig | None = None,
) -> FisherReport:
    """Evaluate both forms at the first probe and the gradient form across all.

    ``max_xi_variation`` is the spread of the gradient form over the probes,
    a direct check of the xi-independence that form invariance guarantees.
    """
    if xi_values is None:
        xi_values = default_probe_points(model)
    xi_values = tuple(float(x) for x in xi_values)
    if not xi_values:
        raise InputError("at least one probe point is required")
    grads = [fisher_gradient_form(model, x, cfg) for x in xi_values]
    curv = fisher_curvature_form(model, xi_values[0], cfg)
    return FisherReport(
        gradient_form=grads[0],
        curvature_form=curv,
        xi_probe_values=xi_values,
        max_xi_variation=float(np.max(np.abs(np.asarray(grads) - grads[0]))),
    )


def default_probe_points(model: ModelSpec, count: int = 10) -> tuple[float, ...]:
    """Evenly spaced interior probe points for xi-independence checks.

    Unbounded domains are probed on [-3, 3]; the trigonometric interval is
    probed away from its ends, and the binomial away from its degenerate
    parameter values as well.
    """
    if model.id in (ModelId.CHI_SQUARED_LOG, ModelId.GAUSSIAN_SHIFT):
        return tuple(np.linspace(-3.0, 3.0, count))
    if model.id is ModelId.TRIG_TRANSLATIONAL:
        return tuple(np.linspace(-1.4, 1.4, count))
    return tuple(np.linspace(0.15, 1.4, count))


def prior_measure(model: ModelSpec) -> float:
    """The constant invariant measure on the parameter scale, sqrt(F)."""
    return math.sqrt(model.analytic_fisher)

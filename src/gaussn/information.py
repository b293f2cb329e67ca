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

Both integrate over the observations through the family record's
``over_x``, about xi (a line family in its own frame, at its scale).

Both forms are independent of xi for every bundled model; the constant
prior measure is sqrt(F) with the proportionality constant fixed to 1 (it
cancels in every posterior).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ._lazy import LazyNumpy
from .errors import InputError
from .models import ModelSpec, _check_xi
from .quadrature import QuadratureConfig

np = LazyNumpy(globals())

__all__ = [
    "FisherReport",
    "fisher_gradient_form",
    "fisher_curvature_form",
    "fisher_report",
    "prior_measure",
]

_GRAD_STEP = 1e-5
_CURV_STEP = 1e-4

# Finite differencing of machine-precision values divides roundoff by h (or
# h^2), so the integrands carry irreducible pointwise noise.  Quadrature
# cannot certify tolerances below that floor; the noise is zero-mean, so the
# returned values are still far more accurate than the floor itself.  The
# floor scales with the expected result so that small-Fisher models (wide
# Gaussians) are not asked for meaningless absolute accuracy.
_GRAD_TOL_FLOOR = 1e-9
_CURV_TOL_FLOOR = 5e-8


def _floored(family, cfg: QuadratureConfig | None, floor: float) -> QuadratureConfig:
    cfg = cfg or QuadratureConfig()
    f = family.fisher
    # Tighten for small results (wide Gaussians, F << abs_tol), but never
    # below the stencil noise, a fraction ``floor`` of F at every scale (the
    # steps grow with a wide family's scale).
    abs_eff = max(min(cfg.abs_tol, f * cfg.rel_tol), f * floor)
    return dataclasses.replace(cfg, abs_tol=abs_eff, rel_tol=max(cfg.rel_tol, floor))


@dataclass(frozen=True)
class FisherReport:
    gradient_form: float
    curvature_form: float
    xi_probe_values: tuple[float, ...]
    max_xi_variation: float


def _score_fd(family, xs, xi: float, p, h: float):
    """Numerical score d/dxi ln p, as a density difference over the density.

    ``p`` is the density at ``xs`` and ``xi``, which every caller already
    holds.  The central difference of p with step ``h`` is Richardson
    extrapolated once; where the density underflows to zero the score is
    reported as zero (those points carry no weight).
    """

    def diff(hh):
        return (family.density(xs, xi + hh) - family.density(xs, xi - hh)) / (2.0 * hh)

    d = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = d[mask] / p[mask]
    return out


def fisher_gradient_form(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Expected squared score, E[(d/dxi ln p)^2]."""
    _check_xi(model, xi)
    family = model._family
    # The base steps assume unit length scale; the Gaussian family's scale
    # is sigma, and a fixed step drowns in roundoff once sigma is large.
    h = _GRAD_STEP * max(1.0, family.scale)
    xi = family.nudge(xi)

    def integrand(xs):
        p = family.density(xs, xi)
        return p * _score_fd(family, xs, xi, p, h) ** 2

    return family.over_x(integrand, xi, _floored(family, cfg, _GRAD_TOL_FLOOR)).value


def _curvature_stencil(family, xs, xi: float, ld, h: float):
    """Second difference of ln p in xi; ``ld`` is ln p at ``xi`` itself."""
    return (family.log_density(xs, xi + h) - 2.0 * ld + family.log_density(xs, xi - h)) / h**2


def fisher_curvature_form(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Negative expected curvature of the log density, -E[d^2/dxi^2 ln p]."""
    _check_xi(model, xi)
    family = model._family
    h = _CURV_STEP * max(1.0, family.scale)
    xi = family.nudge(xi)

    def integrand(xs):
        ld = family.log_density(xs, xi)
        return np.exp(ld) * _curvature_stencil(family, xs, xi, ld, h)

    points = None
    if family.zeros is not None:
        # The stencil arms ln p(x | xi -+ h) diverge at h-shifted images of
        # the density zeros; the zeros themselves are harmless but sharp.
        points = [s for z in family.zeros(xi) for s in (z - h, z, z + h)]
    return -family.over_x(integrand, xi, _floored(family, cfg, _CURV_TOL_FLOOR), points).value


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
    return tuple(np.linspace(*model._family.probe_span, count))


def prior_measure(model: ModelSpec) -> float:
    """The constant invariant measure on the parameter scale, sqrt(F)."""
    return math.sqrt(model.analytic_fisher)
